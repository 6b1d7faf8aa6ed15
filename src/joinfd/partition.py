"""Stripped partitions, the g3 error measure, and violating-tuple extraction.

A stripped partition keeps only the equivalence classes of size >= 2 under an
attribute set; singleton classes can never witness an FD violation, so they
are dropped. The error of a candidate dependency is the minimum fraction of
rows whose removal makes it hold, computed class by class as "everything
outside one largest consistent subclass".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, TYPE_CHECKING

from .errors import SchemaError
from .relation import AttrRef, Instance

if TYPE_CHECKING:  # pragma: no cover
    from .fds import FunctionalDependency


@dataclass(frozen=True)
class StrippedPartition:
    """Equivalence classes of size >= 2 under `attrs` of one instance."""

    attrs: frozenset[str]
    classes: tuple[tuple[int, ...], ...]
    source_rows: int


@dataclass(frozen=True)
class ViolationSet:
    """A minimum set of rows whose removal makes `fd` hold."""

    fd: "FunctionalDependency"
    tuple_ids: frozenset[int]


def _grouped(instance: Instance, ordinals: Sequence[int]) -> dict:
    groups: dict[tuple[int, ...], list[int]] = {}
    cols = [instance.columns[o] for o in ordinals]
    for r in range(instance.row_count):
        groups.setdefault(tuple(col[r] for col in cols), []).append(r)
    return groups


def build_partition(instance: Instance, attrs: Iterable[AttrRef]) -> StrippedPartition:
    """Group rows with identical code tuples on `attrs`, dropping singletons.

    The empty attribute set is allowed and produces the single all-rows
    class (stripped if the instance has fewer than two rows).
    """
    ords = instance.ordinals(attrs)
    names = frozenset(instance.schema[o].name for o in ords)
    if not ords:
        classes = (
            (tuple(range(instance.row_count)),) if instance.row_count >= 2 else ()
        )
        return StrippedPartition(names, classes, instance.row_count)
    groups = _grouped(instance, ords)
    classes = tuple(
        tuple(g) for g in sorted(groups.values(), key=lambda g: g[0]) if len(g) >= 2
    )
    return StrippedPartition(names, classes, instance.row_count)


def partition_product(p: StrippedPartition, q: StrippedPartition) -> StrippedPartition:
    """Partition under attrs(p) | attrs(q), refined from the two inputs."""
    if p.source_rows != q.source_rows:
        raise SchemaError(
            f"partition product over mismatched instances "
            f"({p.source_rows} vs {q.source_rows} rows)"
        )
    lookup: dict[int, int] = {}
    for idx, cls in enumerate(p.classes):
        for t in cls:
            lookup[t] = idx
    out: list[tuple[int, ...]] = []
    for cls in q.classes:
        buckets: dict[int, list[int]] = {}
        for t in cls:
            owner = lookup.get(t)
            if owner is not None:
                buckets.setdefault(owner, []).append(t)
        for group in buckets.values():
            if len(group) >= 2:
                out.append(tuple(group))
    out.sort(key=lambda g: g[0])
    return StrippedPartition(p.attrs | q.attrs, tuple(out), p.source_rows)


def _class_violations(
    instance: Instance, classes: Iterable[Sequence[int]], rhs_ord: int
) -> tuple[int, list[int]]:
    """Per lhs-class: rows outside one largest rhs-consistent subclass.

    Ties between equally large subclasses are broken toward the one whose
    smallest row id is smallest, so results are deterministic.
    """
    rhs_col = instance.columns[rhs_ord]
    total = 0
    removed: list[int] = []
    for cls in classes:
        sub: dict[int, list[int]] = {}
        for t in cls:
            sub.setdefault(rhs_col[t], []).append(t)
        if len(sub) == 1:
            continue
        keep = max(sub.values(), key=lambda g: (len(g), -g[0]))
        total += len(cls) - len(keep)
        for group in sub.values():
            if group is not keep:
                removed.extend(group)
    return total, removed


def g3_error(instance: Instance, lhs: Iterable[AttrRef], rhs: AttrRef) -> float:
    """Minimum fraction of rows to remove so that lhs -> rhs holds.

    Zero iff the dependency holds; an empty instance yields zero by the
    vacuous-satisfaction convention.
    """
    if instance.row_count == 0:
        return 0.0
    part = build_partition(instance, lhs)
    rhs_ord = instance.ordinal(rhs)
    count, _ = _class_violations(instance, part.classes, rhs_ord)
    return count / instance.row_count


def violating_tuples(instance: Instance, fd: "FunctionalDependency") -> ViolationSet:
    """The deterministic minimum row set whose removal makes `fd` hold."""
    part = build_partition(instance, fd.lhs)
    rhs_ord = instance.ordinal(fd.rhs)
    _, removed = _class_violations(instance, part.classes, rhs_ord)
    return ViolationSet(fd, frozenset(removed))
