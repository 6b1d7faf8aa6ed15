"""Stage 1, upstaging: each side's dependencies on its rows in the join, and
the one rule that tags the final dependencies an input already had.

`upstage` mines each side's rows in the join (the input rows that survive
it, plus padding rows) once, whole, as a single table, with the
`discover_new_fds` that stage 0 also runs on a padded side's input. Each
set holds every minimal dependency of its side's join rows, so it implies
exactly those that hold there. The later stages reason from those two
sets, and the report tags their members `upstaged-left` and
`upstaged-right`: the join made a dependency exact when it filtered out
every row violating it, rows whose join value has no partner on the other
side. Selective runs it, and sampling runs it only on a semi-join, where
it is the whole answer.

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
  the dropped rows, in one pass over the rows of every dropped value that
  two or more rows carry, without partitioning the input. A lhs missing a
  join attribute can meet a dropped row with a kept one, so it is tested
  on the input's partitions (`JoinContext.input_partitions`).
- A side that an outer operator pads with nulls is no row subset, since a
  smaller lhs may hold on the input and be broken by padding. There a
  member is preserved iff it holds on the input's partitions and no
  one-smaller lhs does, under every strategy. A frugal run has mined the
  input on those partitions in stage 0 (`JoinContext.input_fds`), so the
  test reads partitions already built; the oracle mines no input.

Sampling mines no side's rows on other joins, so the same pass finds the
members upstaging would have mined: a `sampled` member whose names all map
to side S, in the same side order, and that holds on S's join rows is
tagged `upstaged-S`, and the rule above then applies to it. It is minimal
on the micro-join, whose S-projection lies inside S's join rows, so it is
minimal there too. A `sampled` member that holds on no side's rows keeps
its tag and is not preserved.
"""

from __future__ import annotations

from typing import Callable

from .context import JoinContext
from .discovery import discover_new_fds, holds_within
from .errors import InternalInvariantError
from .fds import FdSet, FunctionalDependency, mask_bits


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
    context: JoinContext, side: str
) -> Callable[[FunctionalDependency], bool]:
    """Is a final member, in `side`'s names and holding on its join rows, a
    minimal dependency of that input? See the module docstring."""
    inst = context.left if side == "left" else context.right
    if context.pads_left() if side == "left" else context.pads_right():
        cache = context.input_partitions(side)

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
    # a member can fail only among two or more rows of one dropped value,
    # and there are none when the dropped rows are as many as the dropped
    # values; rows of two values never agree on a lhs holding every join
    # attribute, so one pass over all such rows decides it
    dangling = profile.dangling_left if side == "left" else profile.dangling_right
    dropped: list[int] = []
    if inst.row_count - kept > len(dangling):
        counts = profile.counts(side)
        multi = [False] * len(counts)
        for g in dangling:
            multi[g] = counts[g] > 1
        dropped = [r for r, g in enumerate(profile.ids(side)) if multi[g]]

    def holds_on_input(d: FunctionalDependency) -> bool:
        rhs = inst.ordinal(d.rhs)
        if on <= d.lhs:
            lhs = [inst.columns[o] for o in inst.ordinals(d.lhs)]
            return holds_within(dropped, lhs, inst.columns[rhs])
        cache = context.input_partitions(side)
        return cache.holds(cache.mask(d.lhs), rhs)

    return holds_on_input


def preserved_tags(final: FdSet, sources: FdSet, context: JoinContext) -> FdSet:
    """`final` with each member tagged `preserved-left` or `preserved-right`
    by the module docstring's rule, or else as in `sources`, the union of
    the stage outputs in priority order, whose first tag per member stands,
    but for a `sampled` member that holds on one side's join rows, which
    is `upstaged-*`.
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
        for side, base in sides:
            if d.rhs not in base or not d.lhs <= base.keys():
                continue
            local = d.rename(base)
            if tag == "sampled":
                if not context.holds_on_side(side, local):
                    continue
                tag = f"upstaged-{side}"
            if side not in tests:
                tests[side] = _preserved_test(context, side)
            if tests[side](local):
                tag = f"preserved-{side}"
                break
        tagged.add(d, tag)
    return tagged
