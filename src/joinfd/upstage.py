"""Stage 1, upstaging: each side's dependencies on its rows in the join, and
the one rule that tags the final dependencies an input already had.

`upstage` mines each side's rows in the join (the input rows that survive
it, plus padding rows) once, whole, as a single table. Each set holds every
minimal dependency of its side's join rows, so it implies exactly those
that hold there. The later stages reason from those two sets, and the
report tags their members `upstaged-left` and `upstaged-right`: the join
made a dependency exact when it filtered out every row violating it, rows
whose join value has no partner on the other side.

`preserved_tags` then settles, once, on the final set and for every
strategy, which members an input already had, and that tag overrides the
stage's. A member whose names all map to side S, the left side first and
never a semi-join's dropped side, is `preserved-S` iff it is a minimal
dependency of input S and it holds on S's join rows. A final member that
holds on S's join rows is minimal there: a smaller lhs holding there is
implied by S's mined set, and the final set keeps no member that a smaller
one implies (the oracle's members are minimal on the whole join). So:

- On a side that is its own input (unpadded, every row survives) every
  such member is preserved.
- On a row subset of the input, a member is preserved iff it holds on the
  input. The subset keeps or drops all rows of a join value, and rows that
  agree on every join attribute of the side carry one join value. So a
  member whose lhs holds all of them holds on the input iff it holds among
  the rows of each dropped value: only those rows are tested, without
  partitioning the input. A lhs missing a join attribute can meet a dropped
  row with a kept one, so it is tested on the input's partitions, built
  once per side when first needed.
- A side that an outer operator pads with nulls is no row subset, since a
  smaller lhs may hold on the input and be broken by padding. A frugal run
  hands in the survivors, the members of the input's own set that the
  side's mined set implies, and a member is preserved iff it is one of
  them. The oracle mines no input set: there a member is preserved iff it
  holds on the input's partitions and no one-smaller lhs does.

A member still tagged `sampled` is not preserved: had it held on the side's
rows, it would be in that side's mined set and tagged `upstaged-*` first.
"""

from __future__ import annotations

from itertools import compress
from typing import Callable, Sequence

from .context import JoinContext
from .discovery import _PartitionCache, discover_new_fds, holds_within
from .errors import InternalInvariantError
from .fds import FdSet, FunctionalDependency, mask_bits


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


def upstage(context: JoinContext) -> tuple[FdSet, FdSet]:
    """Each side's minimal dependencies on its join rows, in side-local
    names, as (left, right); empty for a semi-join's dropped side.

    Each side's rows are mined once, whole, on the partitions the validator
    reads too (`context.side_partitions`).
    """
    left, right = (
        FdSet()
        if (sub := context.side_subinstance(side)) is None
        else discover_new_fds(sub, context.side_partitions(side))
        for side in ("left", "right")
    )
    return left, right


def _preserved_test(
    context: JoinContext, side: str, survivors: dict[str, FdSet] | None
) -> Callable[[FunctionalDependency], bool]:
    """Is a final member, in `side`'s names and holding on its join rows, a
    minimal dependency of that input? See the module docstring."""
    inst = context.left if side == "left" else context.right
    padded = context.pads_left() if side == "left" else context.pads_right()
    if padded:
        if survivors is not None:
            return survivors[side].__contains__
        cache = _PartitionCache(inst)

        def minimal_on_input(d: FunctionalDependency) -> bool:
            lhs, rhs = cache.mask(d.lhs), inst.ordinal(d.rhs)
            return cache.holds(lhs, rhs) and not any(
                cache.holds(lhs ^ bit, rhs) for bit in mask_bits(lhs)
            )

        return minimal_on_input
    # the side's kept rows, without building its sub-instance
    kept = len(context._side_rows(side)[0])
    if kept == inst.row_count:
        return lambda d: True
    profile = context.profile
    on = set(context.spec.left_on if side == "left" else context.spec.right_on)
    # a dropped value's rows are picked by group id; a member can fail only
    # among two or more of them, and there are none when the dropped rows
    # are as many as the dropped values
    dangling = profile.dangling_left if side == "left" else profile.dangling_right
    dropped: list[list[int]] = []
    if inst.row_count - kept > len(dangling):
        dropped = _rows_by_id(profile.ids(side), profile.counts(side), dangling)
    cache = None  # the input's partitions, for any other lhs

    def holds_on_input(d: FunctionalDependency) -> bool:
        nonlocal cache
        rhs = inst.ordinal(d.rhs)
        if on <= d.lhs:
            lhs = [inst.columns[o] for o in inst.ordinals(d.lhs)]
            return all(holds_within(rows, lhs, inst.columns[rhs]) for rows in dropped)
        cache = cache or _PartitionCache(inst)
        return cache.holds(cache.mask(d.lhs), rhs)

    return holds_on_input


def preserved_tags(
    final: FdSet,
    sources: FdSet,
    context: JoinContext,
    survivors: dict[str, FdSet] | None = None,
) -> FdSet:
    """`final` with each member tagged `preserved-left` or `preserved-right`
    by the module docstring's rule, or else as in `sources`, the union of
    the stage outputs in priority order, whose first tag per member stands.

    `survivors` maps each padded side of a frugal run to the members of
    its input's set that hold on the side's rows; the oracle passes none.
    """
    sides = [
        (side, {qual: a for a, qual in names.items()})
        for side, names in (("left", context.lmap), ("right", context.rmap))
        # a semi-join's dropped side has no attributes in the result, though
        # its base names can match the kept side's
        if side != context.dropped_side()
    ]
    tests: dict[str, Callable[[FunctionalDependency], bool]] = {}
    tagged = FdSet()
    for d in final:  # sorted, so partitions are built in a fixed order
        tag = sources.origins.get(d)
        if tag is None:
            raise InternalInvariantError(
                f"dependency {d} in the final set has no producing stage"
            )
        for side, base in sides if tag != "sampled" else ():
            if d.rhs not in base or not d.lhs <= base.keys():
                continue
            if side not in tests:
                tests[side] = _preserved_test(context, side, survivors)
            if tests[side](d.rename(base)):
                tag = f"preserved-{side}"
                break
        tagged.add(d, tag)
    return tagged
