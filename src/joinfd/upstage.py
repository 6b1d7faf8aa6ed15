"""Stage 1: each side's dependencies on the join, preserved or upstaged.

Each side's rows in the join (the input rows that survive it, plus padding
rows) are mined once, whole, as a single table. The result is split into
dependencies the input already had (preserved) and the rest (upstaged):
those the join made exact by filtering out every row violating them, rows
whose join value has no partner on the other side. There are two rules.

On a row subset of the input, each mined dependency that holds on the input
is preserved: a minimal dependency of the subset that holds on the input is
minimal there too. A side that is its own input (unpadded, every row
survives) preserves all of them and upstages nothing.

A side that an outer operator pads with nulls is no row subset, since a
smaller lhs may hold on the input and be broken by padding. There the
members of the input's own set, mined once per context, that hold on the
side's rows are preserved, and the mined dependencies they do not imply are
upstaged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .context import JoinContext
from .discovery import _PartitionCache, discover_new_fds
from .fds import FdSet, implies, remove_implied

@dataclass
class UpstageResult:
    left_upstaged: FdSet
    right_upstaged: FdSet
    # dependencies of each input table still holding on the join, in side-
    # local names; the effective base the later stages reason from
    left_preserved: FdSet = field(default_factory=FdSet)
    right_preserved: FdSet = field(default_factory=FdSet)


def upstage(context: JoinContext) -> UpstageResult:
    """Run the upstaging stage on both sides of the join.

    Per side, the side's rows are mined once, whole. On a row subset of the
    input, the mined members that hold on the input are preserved, and all
    of them on a side that is its own input. On a padded side, the members
    of the input's set (`context.input_fds`) that hold on the side's rows
    are preserved, and the mined members they do not imply are upstaged.
    """
    out: dict[str, FdSet] = {}
    preserved: dict[str, FdSet] = {}
    for side, inst, padded in (
        ("left", context.left, context.pads_left()),
        ("right", context.right, context.pads_right()),
    ):
        sub = context.side_subinstance(side)
        if sub is None:  # dropped side of a semi-join
            out[side], preserved[side] = FdSet(), FdSet()
            continue
        # the validator reads the same sub-instance's partitions
        partitions = context.side_partitions(side)
        mined = discover_new_fds(sub, partitions)
        if padded:
            # judged in ascending lhs mask order, so that the partitions
            # built here, and the parents later ones are refined from, do
            # not follow the hash seed
            by_lhs = sorted(
                context.input_fds(side).as_set(),
                key=lambda d: partitions.mask(d.lhs),
            )
            kept = FdSet(
                d
                for d in by_lhs
                if partitions.holds(partitions.mask(d.lhs), sub.ordinal(d.rhs))
            )
            out[side] = remove_implied(
                d for d in mined if d not in kept and not implies(kept, d)
            )
        elif sub is inst:  # the side is its own input: nothing to upstage
            kept, out[side] = mined, FdSet()
        else:
            # keep as preserved each member that holds on the input: a row
            # subset's minimal dependency that holds on the whole input is
            # minimal there too, since any smaller lhs holding there would
            # hold on the subset
            cache = _PartitionCache(inst)
            kept, new = FdSet(), FdSet()
            for d in mined:
                on_input = cache.holds(cache.mask(d.lhs), inst.ordinal(d.rhs))
                (kept if on_input else new).add(d)
            out[side] = remove_implied(new)
        preserved[side] = kept
    left_up, right_up = FdSet(), FdSet()
    for d in out["left"]:
        left_up.add(d, "upstaged-left")
    for d in out["right"]:
        right_up.add(d, "upstaged-right")
    return UpstageResult(
        left_upstaged=left_up,
        right_upstaged=right_up,
        left_preserved=preserved["left"],
        right_preserved=preserved["right"],
    )
