"""Stage 1: each side's dependencies on the join, preserved or upstaged.

Each side's rows in the join (the input rows that survive it, plus padding
rows) are mined once, whole, as a single table. The result is split into
dependencies the input already had (preserved) and the rest (upstaged):
those the join made exact by filtering out every row violating them, rows
whose join value has no partner on the other side. There are two rules.

On a row subset of the input, each mined dependency that holds on the input
is preserved: a minimal dependency of the subset that holds on the input is
minimal there too. A side that is its own input (unpadded, every row
survives) preserves all of them and upstages nothing. The subset keeps or
drops all rows of a join value, and rows that agree on every join attribute
of the side carry one join value. So a mined dependency whose lhs holds all
of them, which holds on the subset, holds on the input iff it holds among
the rows of each dropped value: only those rows are tested, without
partitioning the input. A lhs missing a join attribute can meet a dropped
row with a kept one, so it is tested on the input's partitions, built once
per side when first needed.

A side that an outer operator pads with nulls is no row subset, since a
smaller lhs may hold on the input and be broken by padding. There the
members of the input's own set, mined once per context, that hold on the
side's rows are preserved, and the mined dependencies they do not imply are
upstaged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Sequence

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


def _holds_within(
    rows: Sequence[int], lhs: list[Sequence[int]], rhs: Sequence[int]
) -> bool:
    """Do the given rows that agree on every `lhs` column agree on `rhs`?"""
    seen: dict[tuple, int] = {}
    for r in rows:
        if seen.setdefault(tuple(col[r] for col in lhs), rhs[r]) != rhs[r]:
            return False
    return True


def _rows_by_id(
    ids: Sequence[int], counts: Sequence[int], dangling: range
) -> list[list[int]]:
    """The ascending rows of each dangling id that two or more rows carry,
    in order of their first row, which is id order."""
    multi = [False] * len(counts)
    for g in dangling:
        multi[g] = counts[g] > 1
    by_id: dict[int, list[int]] = {}
    for r in compress(range(len(ids)), map(multi.__getitem__, ids)):
        by_id.setdefault(ids[r], []).append(r)
    return list(by_id.values())


def upstage(context: JoinContext) -> UpstageResult:
    """Run the upstaging stage on both sides of the join.

    Per side, the side's rows are mined once, whole. On a row subset of the
    input, the mined members that hold on the input are preserved, and all
    of them on a side that is its own input; a member whose lhs holds every
    join attribute of the side is tested within each dropped join value's
    rows alone, any other on the input's partitions. On a padded side, the
    members of the input's set (`context.input_fds`) that hold on the
    side's rows are preserved, and the mined members they do not imply are
    upstaged.
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
            kept, new = FdSet(), FdSet()
            profile = context.profile
            on = set(context.spec.left_on if side == "left" else context.spec.right_on)
            # rows agreeing on every join attribute carry one join value, and
            # the subset keeps or drops all rows of a value: a member whose
            # lhs holds them all can fail on the input only among the rows of
            # one dropped value with two or more, picked by group id; there is
            # none when the dropped rows are as many as the dropped values
            dropped: list[list[int]] = []
            dangling = (
                profile.dangling_left if side == "left" else profile.dangling_right
            )
            if inst.row_count - sub.row_count > len(dangling):
                dropped = _rows_by_id(profile.ids(side), profile.counts(side), dangling)
            cache = None  # the input's partitions, for any other lhs
            for d in mined:
                rhs = inst.ordinal(d.rhs)
                if on <= d.lhs:
                    lhs = [inst.columns[o] for o in inst.ordinals(d.lhs)]
                    on_input = all(
                        _holds_within(rows, lhs, inst.columns[rhs]) for rows in dropped
                    )
                else:
                    cache = cache or _PartitionCache(inst)
                    on_input = cache.holds(cache.mask(d.lhs), rhs)
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
