"""Functional dependencies as values, plus the logic toolbox.

Dependencies are canonical: a single right-hand attribute, never contained in
the left-hand side. An empty lhs means "rhs is constant". Dependencies carry
attribute names; the logic runs on integer bitmasks. A set of dependencies
is compiled to `Rules` (a bit per name, and per lhs mask the union of its rhs
bits), and implication is an attribute-closure fixpoint on masks that stops
as soon as it reaches the goal bit. An `FdSet` compiles itself once and
extends the compiled rules on `add`; `remove_implied` and `minimal_cover`
compile their input once per call. Minimal cover first reduces each lhs then
drops members implied by the rest, in a fixed canonical order so outputs are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InternalInvariantError

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

    def to_json(self, origin: str | None = None) -> dict:
        doc: dict = {"lhs": sorted(self.lhs), "rhs": self.rhs}
        if origin is not None:
            doc["origin"] = origin
        return doc


def fd(lhs: Iterable[str], rhs: str) -> FunctionalDependency:
    """Shorthand constructor used heavily in tests."""
    return FunctionalDependency(frozenset(lhs), rhs)


class FdSet:
    """An ordered-on-demand set of dependencies with optional origin tags."""

    def __init__(self, fds: Iterable[FunctionalDependency] = ()):
        self._fds: set[FunctionalDependency] = set(fds)
        self.origins: dict[FunctionalDependency, str] = {}
        self._rules: Rules | None = None  # compiled on first use, see compile_rules

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
        if item not in self._fds:
            self._fds.add(item)
            if self._rules is not None:
                self._rules.add(item)
        if origin is not None:
            self.origins.setdefault(item, origin)

    def union(self, *others: "FdSet | Iterable[FunctionalDependency]") -> "FdSet":
        merged = FdSet(self._fds)
        merged.origins.update(self.origins)
        for other in others:
            if isinstance(other, FdSet):
                for d, tag in other.origins.items():
                    merged.origins.setdefault(d, tag)
                # iterating an FdSet sorts it; a union needs no order
                other = other._fds
            merged._fds.update(other)
        return merged

    def as_set(self) -> frozenset[FunctionalDependency]:
        return frozenset(self._fds)

    def to_json(self) -> list[dict]:
        return [d.to_json(origin=self.origins.get(d)) for d in self]


def mask_bits(mask: int) -> Iterator[int]:
    """The set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


class Rules:
    """Dependencies compiled to attribute bitmasks.

    Every name gets the next free bit the first time it is seen, and `rules`
    maps each lhs mask to the union of the rhs bits of its dependencies.
    """

    __slots__ = ("bits", "order", "rules")

    def __init__(self, fds: Iterable[FunctionalDependency] = ()):
        self.bits: dict[str, int] = {}
        self.order: list[str] = []  # names by bit position
        self.rules: dict[int, int] = {}
        for d in fds:
            self.add(d)

    def mask(self, names: Iterable[str]) -> int:
        bits = self.bits
        out = 0
        for a in names:
            bit = bits.get(a)
            if bit is None:
                bit = bits[a] = 1 << len(self.order)
                self.order.append(a)
            out |= bit
        return out

    def names(self, mask: int) -> frozenset[str]:
        return frozenset(self.order[b.bit_length() - 1] for b in mask_bits(mask))

    def add(self, d: FunctionalDependency) -> None:
        self.put(self.mask(d.lhs), self.mask((d.rhs,)))

    def put(self, lhs: int, rhs: int) -> None:
        self.rules[lhs] = self.rules.get(lhs, 0) | rhs

    def drop(self, lhs: int, rhs: int) -> None:
        rest = self.rules[lhs] & ~rhs
        if rest:
            self.rules[lhs] = rest
        else:
            del self.rules[lhs]

    def closure(self, mask: int, goal: int = 0) -> int:
        """Fixpoint of `mask` (empty-lhs rules always fire).

        Returns as soon as a rule adds a bit of `goal`, so the result is
        the full closure only when it holds no goal bit.
        """
        items = self.rules.items()
        missing = ~mask
        grown = True
        while grown:
            grown = False
            for lhs, rhs in items:
                if not lhs & missing and rhs & missing:
                    mask |= rhs
                    if mask & goal:
                        return mask
                    missing = ~mask
                    grown = True
        return mask


def compile_rules(fds: "FdSet | Iterable[FunctionalDependency]") -> Rules:
    """`fds` as `Rules`: an FdSet's own, compiled once, else a new table."""
    if isinstance(fds, FdSet):
        if fds._rules is None:
            fds._rules = Rules(fds._fds)
        return fds._rules
    return Rules(fds)


def attribute_closure(
    attrs: Iterable[str], fds: "FdSet | Iterable[FunctionalDependency]"
) -> frozenset[str]:
    """Fixpoint of `attrs` under the dependencies (empty-lhs rules always fire)."""
    rules = compile_rules(fds)
    return rules.names(rules.closure(rules.mask(attrs)))


def implies(
    base: "FdSet | Iterable[FunctionalDependency]", candidate: FunctionalDependency
) -> bool:
    """True iff `base` logically implies `candidate`."""
    rules = compile_rules(base)
    goal = rules.bits.get(candidate.rhs)
    if goal is None:  # no rule derives the rhs
        return False
    return bool(rules.closure(rules.mask(candidate.lhs), goal) & goal)


def remove_implied(fds: "FdSet | Iterable[FunctionalDependency]") -> FdSet:
    """Drop members implied by the remaining ones; canonical processing order.

    Larger dependencies are considered for removal first so that the
    irredundant core of small rules survives.
    """
    pool = set(fds._fds if isinstance(fds, FdSet) else fds)
    rules = Rules(pool)
    for d in sorted(pool, key=lambda x: (-len(x.lhs),) + x.sort_key()):
        lhs, goal = rules.mask(d.lhs), rules.bits[d.rhs]
        rules.drop(lhs, goal)
        if rules.closure(lhs, goal) & goal:
            pool.discard(d)
        else:
            rules.put(lhs, goal)
    return FdSet(pool)


def minimal_cover(fds: "FdSet | Iterable[FunctionalDependency]") -> FdSet:
    """Left-reduce every member against the whole set, then drop redundancy.

    The result implies every input member, no member is implied by the
    others, and no lhs can be shrunk without losing the closure.
    """
    original = set(fds)
    rules = Rules(original)
    reduced: set[FunctionalDependency] = set()
    for d in original:
        lhs, goal = rules.mask(d.lhs), rules.bits[d.rhs]
        dropped = []
        for attr in sorted(d.lhs):
            bit = rules.bits[attr]
            if rules.closure(lhs ^ bit, goal) & goal:
                lhs ^= bit
                dropped.append(attr)
        reduced.add(
            FunctionalDependency(d.lhs.difference(dropped), d.rhs) if dropped else d
        )
    return remove_implied(reduced)


def closure_equal(
    a: "FdSet | Iterable[FunctionalDependency]",
    b: "FdSet | Iterable[FunctionalDependency]",
) -> bool:
    """Do the two sets imply each other?"""
    a = a if isinstance(a, FdSet) else FdSet(a)
    b = b if isinstance(b, FdSet) else FdSet(b)
    return all(implies(b, d) for d in a) and all(implies(a, d) for d in b)
