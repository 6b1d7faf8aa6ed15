"""Stage 1: each side's dependencies on the join, preserved or upstaged.

Each side's rows in the join (the input rows that survive it, plus padding
rows) are mined once, as a single table. Without an input dependency set a
mined dependency that holds on the whole input is preserved, and the rest
are upstaged: they became exact because the join filtered out every row
violating them (rows whose join value has no partner on the other side).
That test is sound only on a row subset of the input: a minimal dependency
of the subset that holds on the input is minimal there too.

Sides that an outer operator pads with nulls are no row subset, since a
smaller lhs may hold on the input and be broken by padding. They, like any
side with a given or approximate input set, keep that set: its members that
hold on the padded rows are preserved, approximate dependencies whose
violators all dangle are promoted, and the rows are mined only for what
those do not imply. Sides that an outer operator preserves are never filtered,
so they cannot upstage anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .context import JoinContext
from .discovery import (
    _PartitionCache,
    discover_fds,
    discover_new_fds,
    minimal_variants,
)
from .errors import InputError
from .fds import Afd, FdSet, FunctionalDependency, remove_implied
from .partition import violating_tuples
from .relation import Instance

@dataclass
class UpstageResult:
    left_upstaged: FdSet
    right_upstaged: FdSet
    # dependencies of each input table still holding on the join, in side-
    # local names; the effective base the later stages reason from
    left_preserved: FdSet = field(default_factory=FdSet)
    right_preserved: FdSet = field(default_factory=FdSet)


def upstaged_afds(
    instance: Instance, dangling_rows: set[int], afds: Sequence[Afd]
) -> FdSet:
    """Promote each approximate dependency whose violators all dangle.

    `dangling_rows` holds the ids of the rows whose join value has no
    partner on the other side.
    """
    promoted = []
    for afd in afds:
        violators = violating_tuples(instance, afd.fd)
        if not violators.tuple_ids:
            raise InputError(
                f"{afd.fd} is exact on {instance.name!r}; not an approximate input"
            )
        if violators.tuple_ids <= dangling_rows:
            promoted.append(afd.fd)
    return remove_implied(promoted)


def upstage(
    context: JoinContext,
    left_fds: FdSet | None = None,
    right_fds: FdSet | None = None,
    left_afds: Sequence[Afd] | None = None,
    right_afds: Sequence[Afd] | None = None,
) -> UpstageResult:
    """Run the upstaging stage on both sides of the join.

    Per side, with no input set (`fds` None, no `afds`) on an unpadded side,
    the side's rows are mined once and each member is preserved iff it holds
    on the input: every member when the side is the input itself. Otherwise
    the side keeps an input set, mined here when `fds` is None: with
    approximate inputs the promotion path runs; with exact ones the
    discovery path re-mines the side's rows, pruning what the set implies;
    with both, the promotion path runs first and the discovery path prunes
    with the union. Promoted dependencies are lhs-minimized against the
    surviving rows so every emitted dependency is minimal on the join. Given
    exact sets are trusted: `run_pipeline` checks a caller's sets before any
    stage runs.
    """
    profile = context.profile
    out: dict[str, FdSet] = {}
    preserved: dict[str, FdSet] = {}
    for side, inst, afds, fds in (
        ("left", context.left, left_afds, left_fds),
        ("right", context.right, right_afds, right_fds),
    ):
        sub = context.side_subinstance(side)
        if sub is None:  # dropped side of a semi-join
            out[side] = FdSet()
            preserved[side] = FdSet()
            continue
        padded = context.pads_left() if side == "left" else context.pads_right()
        # the validator reads the same sub-instance's partitions
        partitions = context.side_partitions(side)
        if fds is None and not (padded or afds):
            # no input set: mine the side's rows alone, and keep as preserved
            # each member that holds on the input. A row subset's minimal
            # dependency that holds on the whole input is minimal there too,
            # since any smaller lhs holding there would hold on the subset.
            mined = discover_new_fds(sub, (), partitions)
            if sub is inst:
                out[side], preserved[side] = FdSet(), mined
                continue
            cache = _PartitionCache(inst)
            kept, new = FdSet(), FdSet()
            for d in mined:
                on_input = cache.holds(cache.mask(d.lhs), inst.ordinal(d.rhs))
                (kept if on_input else new).add(d)
            out[side], preserved[side] = remove_implied(new), kept
            continue
        run_discovery_path = not afds or fds is not None
        if fds is None:
            fds, _ = discover_fds(inst)

        def valid(d: FunctionalDependency) -> bool:
            return partitions.holds(partitions.mask(d.lhs), sub.ordinal(d.rhs))

        members = fds.as_set()
        if padded:
            # judged in ascending lhs mask order, so that the partitions
            # `valid` builds, and the parents later ones are refined from,
            # do not follow the hash seed
            by_lhs = sorted(members, key=lambda d: partitions.mask(d.lhs))
            members = filter(valid, by_lhs)
        survivors = FdSet(members)
        preserved[side] = survivors
        if not padded and sub.row_count == inst.row_count:
            out[side] = FdSet()  # join value sets preserved: nothing to upstage
            continue
        new = FdSet()
        if afds:
            dangling = (
                profile.dangling_left if side == "left" else profile.dangling_right
            )
            promoted = upstaged_afds(inst, set(profile.rows(side, dangling)), afds)
            for d in promoted:
                if valid(d):  # padding may break a promotion
                    for minimal in minimal_variants(d, valid):
                        new.add(minimal)
        if run_discovery_path:
            known = survivors.union(new)
            for d in discover_new_fds(sub, known, partitions):
                new.add(d)
        out[side] = remove_implied(new)
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
