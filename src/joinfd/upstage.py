"""Stage 1: dependencies that become exact once the join filters rows out.

A dependency that almost holds on one table holds exactly on the join result
whenever every row violating it dangles (its join value has no partner on the
other side). The approximate-input path checks precisely that; the discovery
path re-mines the filtered table, pruning everything the already-known
dependencies imply.

Sides that an outer operator preserves are never filtered, so they cannot
upstage anything; sides that an outer operator pads with nulls are checked
against the padded row set so that nothing broken by padding slips through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .context import JoinContext
from .discovery import discover_fds, discover_new_fds, holds, minimal_variants
from .errors import InputError
from .fds import Afd, FdSet, remove_implied
from .joins import JoinKind
from .partition import violating_tuples
from .relation import Instance

_FILTERED_SIDES = {
    JoinKind.INNER: ("left", "right"),
    JoinKind.LEFT_SEMI: ("left",),
    JoinKind.RIGHT_SEMI: ("right",),
    JoinKind.LEFT_OUTER: ("right",),
    JoinKind.RIGHT_OUTER: ("left",),
    JoinKind.FULL_OUTER: (),
}


@dataclass
class UpstageStats:
    rows_filtered_left: int = 0
    rows_filtered_right: int = 0
    afds_checked: int = 0
    afds_promoted: int = 0
    preserved_dropped: int = 0

    def to_json(self) -> dict:
        return dict(self.__dict__)


@dataclass
class UpstageResult:
    left_upstaged: FdSet
    right_upstaged: FdSet
    stats: UpstageStats
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


def _validate_exact(instance: Instance, fds: FdSet) -> None:
    for d in fds:
        if not holds(instance, d):
            raise InputError(
                f"provided dependency {d} does not hold on {instance.name!r}"
            )


def upstage(
    context: JoinContext,
    left_fds: FdSet | None = None,
    right_fds: FdSet | None = None,
    left_afds: Sequence[Afd] | None = None,
    right_afds: Sequence[Afd] | None = None,
    validate: bool = True,
) -> UpstageResult:
    """Run the upstaging stage on both sides of the join.

    Per side: with approximate inputs the promotion path runs; with exact
    inputs (provided or computed) the discovery path runs; with both, the
    promotion path runs first and the discovery path prunes with the union.
    Promoted dependencies are lhs-minimized against the surviving rows so
    every emitted dependency is minimal on the join.
    """
    profile = context.profile
    filtered = _FILTERED_SIDES[context.spec.kind]
    stats = UpstageStats()
    if "left" in filtered:
        stats.rows_filtered_left = profile.count("left", profile.dangling_left)
    if "right" in filtered:
        stats.rows_filtered_right = profile.count("right", profile.dangling_right)
    out: dict[str, FdSet] = {}
    preserved: dict[str, FdSet] = {}
    for side, inst, afds, fds in (
        ("left", context.left, left_afds, left_fds),
        ("right", context.right, right_afds, right_fds),
    ):
        run_discovery_path = not afds or fds is not None
        if fds is None:
            fds, _ = discover_fds(inst)
        elif validate:
            _validate_exact(inst, fds)
        sub = context.side_subinstance(side)
        if sub is None:  # dropped side of a semi-join
            out[side] = FdSet()
            preserved[side] = FdSet()
            continue
        padded = context.pads_left() if side == "left" else context.pads_right()
        survivors = (
            FdSet(d for d in fds if holds(sub, d)) if padded else FdSet(fds.as_set())
        )
        stats.preserved_dropped += len(fds) - len(survivors)
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
            stats.afds_checked += len(afds)
            stats.afds_promoted += len(promoted)
            for d in promoted:
                if holds(sub, d):  # padding may break a promotion
                    for minimal in minimal_variants(d, lambda c: holds(sub, c)):
                        new.add(minimal)
        if run_discovery_path:
            known = survivors.union(new)
            for d in discover_new_fds(sub, known):
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
        stats=stats,
        left_preserved=preserved["left"],
        right_preserved=preserved["right"],
    )
