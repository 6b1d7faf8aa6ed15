"""Stage 1: each side's dependencies on the join, preserved or upstaged.

Each side's rows in the join (the input rows that survive it, plus padding
rows) are mined once, whole, as a single table. The result is split into
dependencies the input already had (preserved) and the rest (upstaged):
those the join made exact by filtering out every row violating them, rows
whose join value has no partner on the other side.

Without an input dependency set the split tests each mined dependency on the
input: one that holds there is preserved. That is sound only on a row
subset of the input, where a minimal dependency of the subset that holds on
the input is minimal there too. Sides that an outer operator pads with nulls
are no row subset, since a smaller lhs may hold on the input and be broken by
padding, so the pipeline hands them their input's set. With an input set,
given or mined, its members that hold on the side's rows are preserved, and
the mined dependencies they do not imply are upstaged. A side that is its
own input (unpadded, every row survives) upstages nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .context import JoinContext
from .discovery import _PartitionCache, discover_new_fds
from .errors import InternalInvariantError
from .fds import FdSet, implies, remove_implied

@dataclass
class UpstageResult:
    left_upstaged: FdSet
    right_upstaged: FdSet
    # dependencies of each input table still holding on the join, in side-
    # local names; the effective base the later stages reason from
    left_preserved: FdSet = field(default_factory=FdSet)
    right_preserved: FdSet = field(default_factory=FdSet)


def upstage(
    context: JoinContext,
    left_fds: FdSet | None = None,
    right_fds: FdSet | None = None,
) -> UpstageResult:
    """Run the upstaging stage on both sides of the join.

    `left_fds` and `right_fds` are the input tables' own dependency sets,
    where the run has them; a padded side must have one. Per side, the
    side's rows are mined once, whole, except on a side that is its own
    input with a set, whose members are all preserved. Given sets are
    trusted: `run_pipeline` checks a caller's sets before any stage runs.
    """
    out: dict[str, FdSet] = {}
    preserved: dict[str, FdSet] = {}
    for side, inst, fds in (
        ("left", context.left, left_fds),
        ("right", context.right, right_fds),
    ):
        sub = context.side_subinstance(side)
        if sub is None:  # dropped side of a semi-join
            out[side], preserved[side] = FdSet(), FdSet()
            continue
        padded = context.pads_left() if side == "left" else context.pads_right()
        if padded and fds is None:
            raise InternalInvariantError(
                f"the padded {side} side was handed no dependency set of its input"
            )
        # the validator reads the same sub-instance's partitions
        partitions = context.side_partitions(side)
        if sub is inst:  # the side is its own input: nothing to upstage
            out[side] = FdSet()
            if fds is None:
                preserved[side] = discover_new_fds(sub, partitions)
            else:
                preserved[side] = FdSet(fds.as_set())
            continue
        mined = discover_new_fds(sub, partitions)
        if fds is None:
            # keep as preserved each member that holds on the input: a row
            # subset's minimal dependency that holds on the whole input is
            # minimal there too, since any smaller lhs holding there would
            # hold on the subset
            cache = _PartitionCache(inst)
            kept, new = FdSet(), FdSet()
            for d in mined:
                on_input = cache.holds(cache.mask(d.lhs), inst.ordinal(d.rhs))
                (kept if on_input else new).add(d)
            out[side], preserved[side] = remove_implied(new), kept
            continue
        members = fds.as_set()
        if padded:
            # judged in ascending lhs mask order, so that the partitions
            # built here, and the parents later ones are refined from, do
            # not follow the hash seed
            by_lhs = sorted(members, key=lambda d: partitions.mask(d.lhs))
            members = [
                d
                for d in by_lhs
                if partitions.holds(partitions.mask(d.lhs), sub.ordinal(d.rhs))
            ]
        kept = FdSet(members)
        out[side] = remove_implied(
            d for d in mined if d not in kept and not implies(kept, d)
        )
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
