"""Stripped partitions.

A stripped partition keeps only the equivalence classes of size >= 2 under an
attribute set; singleton classes can never witness an FD violation, so they
are dropped. A partition is built by refining a coarser one attribute at a
time, starting from the single all-rows class.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable

from .relation import AttrRef, Instance


@dataclass(frozen=True)
class StrippedPartition:
    """Equivalence classes of size >= 2 under `attrs` of one instance."""

    attrs: frozenset[str]
    classes: tuple[tuple[int, ...], ...]
    size: int  # rows in `classes`, what refining this partition reads


def refine(
    part: StrippedPartition, instance: Instance, attr: AttrRef
) -> StrippedPartition:
    """Partition under attrs(part) | {attr}, split class by class.

    Only the `part.size` rows of `part`'s stripped classes are read, so the
    cost shrinks as the attribute set grows. A two-row class is settled by
    one comparison; a larger one is grouped by its codes on `attr`. Classes
    come out in ascending row order, ordered by their first row, so the
    result does not depend on which coarser partition it was refined from.
    """
    ordinal = instance.ordinal(attr)
    col = instance.columns[ordinal]
    out: list[tuple[int, ...]] = []
    for cls in part.classes:
        if len(cls) == 2:
            if col[cls[0]] == col[cls[1]]:
                out.append(cls)
            continue
        groups: dict[int, list[int]] = {}
        for t in cls:
            groups.setdefault(col[t], []).append(t)
        if len(groups) == 1:
            out.append(cls)
            continue
        out.extend(tuple(g) for g in groups.values() if len(g) >= 2)
    out.sort(key=itemgetter(0))
    name = instance.schema[ordinal].name
    return StrippedPartition(part.attrs | {name}, tuple(out), sum(map(len, out)))


def build_partition(instance: Instance, attrs: Iterable[AttrRef]) -> StrippedPartition:
    """Group rows with identical codes on `attrs`, dropping singletons.

    The empty attribute set is allowed and produces the single all-rows
    class (stripped if the instance has fewer than two rows); every other
    set refines it one attribute at a time.
    """
    n = instance.row_count
    classes = (tuple(range(n)),) if n >= 2 else ()
    part = StrippedPartition(frozenset(), classes, sum(map(len, classes)))
    for ordinal in instance.ordinals(attrs):
        part = refine(part, instance, instance.schema[ordinal])
    return part
