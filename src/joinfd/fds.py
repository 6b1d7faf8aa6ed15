"""Functional dependencies as values, plus the logic toolbox.

Dependencies are canonical: a single right-hand attribute, never contained in
the left-hand side. An empty lhs means "rhs is constant". Implication runs
through the usual attribute-closure fixpoint, and minimal cover first reduces
each lhs then drops members implied by the rest, in a fixed canonical order
so outputs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InternalInvariantError

ORIGIN_TAGS = (
    "preserved-left",
    "preserved-right",
    "upstaged-left",
    "upstaged-right",
    "inferred",
    "refined",
    "mined",
    "sampled",
)


@dataclass(frozen=True)
class FunctionalDependency:
    lhs: frozenset[str]
    rhs: str

    def __post_init__(self):
        if self.rhs in self.lhs:
            raise InternalInvariantError(f"trivial dependency: {self}")

    def __str__(self) -> str:
        left = ",".join(sorted(self.lhs)) if self.lhs else "{}"
        return f"{left} -> {self.rhs}"

    def sort_key(self):
        return (self.rhs, len(self.lhs), tuple(sorted(self.lhs)))

    def rename(self, mapping: dict[str, str]) -> "FunctionalDependency":
        return FunctionalDependency(
            frozenset(mapping.get(a, a) for a in self.lhs),
            mapping.get(self.rhs, self.rhs),
        )

    def to_json(self, error: float = 0.0, origin: str | None = None) -> dict:
        doc: dict = {"lhs": sorted(self.lhs), "rhs": self.rhs, "error": error}
        if origin is not None:
            doc["origin"] = origin
        return doc


def fd(lhs: Iterable[str], rhs: str) -> FunctionalDependency:
    """Shorthand constructor used heavily in tests."""
    return FunctionalDependency(frozenset(lhs), rhs)


@dataclass(frozen=True)
class Afd:
    """An approximate dependency: its error fraction and violation count."""

    fd: FunctionalDependency
    error: float
    degree: int

    def __post_init__(self):
        if not 0 < self.error <= 1:
            raise InternalInvariantError(
                f"approximate dependency must have error in (0, 1]: {self}"
            )


class FdSet:
    """An ordered-on-demand set of dependencies with optional origin tags."""

    def __init__(self, fds: Iterable[FunctionalDependency] = ()):
        self._fds: set[FunctionalDependency] = set(fds)
        self.origins: dict[FunctionalDependency, str] = {}

    def __contains__(self, item: FunctionalDependency) -> bool:
        return item in self._fds

    def __iter__(self) -> Iterator[FunctionalDependency]:
        return iter(sorted(self._fds, key=FunctionalDependency.sort_key))

    def __len__(self) -> int:
        return len(self._fds)

    def __eq__(self, other) -> bool:
        if isinstance(other, FdSet):
            return self._fds == other._fds
        if isinstance(other, (set, frozenset)):
            return self._fds == other
        return NotImplemented

    def __repr__(self) -> str:
        return "FdSet({" + ", ".join(str(d) for d in self) + "})"

    def add(self, item: FunctionalDependency, origin: str | None = None) -> None:
        self._fds.add(item)
        if origin is not None:
            self.origins.setdefault(item, origin)

    def union(self, *others: "FdSet | Iterable[FunctionalDependency]") -> "FdSet":
        merged = FdSet(self._fds)
        merged.origins.update(self.origins)
        for other in others:
            for d in other:
                merged.add(d)
            if isinstance(other, FdSet):
                for d, tag in other.origins.items():
                    merged.origins.setdefault(d, tag)
        return merged

    def as_set(self) -> frozenset[FunctionalDependency]:
        return frozenset(self._fds)

    def to_json(self) -> list[dict]:
        return [d.to_json(origin=self.origins.get(d)) for d in self]


def attribute_closure(
    attrs: Iterable[str], fds: Iterable[FunctionalDependency]
) -> frozenset[str]:
    """Fixpoint of `attrs` under the dependencies (empty-lhs rules always fire)."""
    closure = set(attrs)
    pending = list(fds)
    changed = True
    while changed:
        changed = False
        remaining = []
        for d in pending:
            if d.lhs <= closure:
                if d.rhs not in closure:
                    closure.add(d.rhs)
                    changed = True
            else:
                remaining.append(d)
        pending = remaining
    return frozenset(closure)


def implies(
    base: "FdSet | Iterable[FunctionalDependency]", candidate: FunctionalDependency
) -> bool:
    """True iff `base` logically implies `candidate`."""
    return candidate.rhs in attribute_closure(candidate.lhs, base)


def remove_implied(fds: "FdSet | Iterable[FunctionalDependency]") -> FdSet:
    """Drop members implied by the remaining ones; canonical processing order.

    Larger dependencies are considered for removal first so that the
    irredundant core of small rules survives.
    """
    pool = sorted(set(fds), key=FunctionalDependency.sort_key)
    for d in sorted(pool, key=lambda x: (-len(x.lhs),) + x.sort_key()):
        rest = [e for e in pool if e != d]
        if implies(rest, d):
            pool = rest
    return FdSet(pool)


def minimal_cover(fds: "FdSet | Iterable[FunctionalDependency]") -> FdSet:
    """Left-reduce every member against the whole set, then drop redundancy.

    The result implies every input member, no member is implied by the
    others, and no lhs can be shrunk without losing the closure.
    """
    original = sorted(set(fds), key=FunctionalDependency.sort_key)
    reduced: set[FunctionalDependency] = set()
    for d in original:
        lhs = set(d.lhs)
        for attr in sorted(d.lhs):
            if d.rhs in attribute_closure(lhs - {attr}, original):
                lhs.discard(attr)
        reduced.add(FunctionalDependency(frozenset(lhs), d.rhs))
    return remove_implied(reduced)


def closure_equal(
    a: "FdSet | Iterable[FunctionalDependency]",
    b: "FdSet | Iterable[FunctionalDependency]",
) -> bool:
    """Do the two sets imply each other?"""
    a, b = list(a), list(b)
    return all(implies(b, d) for d in a) and all(implies(a, d) for d in b)
