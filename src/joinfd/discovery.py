"""Single-table dependency discovery via level-wise lattice search.

For each right-hand attribute the search walks lhs candidates bottom-up,
starting from the empty set (constant columns), pruning every branch below an
exact hit: a next-level candidate is kept only if every one-smaller lhs subset
was tested and failed, so `discover_fds` needs no implication check. The walk
runs on integer bitmasks (`lattice_bits`): the first name in sorted order
takes the highest bit, so a mask's lowest bit is its largest name, the parent
of a set is the mask minus its lowest bit, and within one level descending
masks come out in lexicographic order of sorted names. Names are built only
for results. Each partition is refined from its cached parent, and a
candidate is tested exactly by scanning lhs classes until one disagrees on
the rhs. With a nonzero error budget the search also counts g3 violations
and reports approximate dependencies that are minimal under the budget; it
keeps expanding below them because exact dependencies may still appear there.

`discover_new_fds` walks the same masks with the same level step, and also
skips every candidate that the known dependencies, plus what it has found
for that rhs, imply; the known set is compiled onto the lattice's bits, so
the implication check is a mask closure as well.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Collection, Iterable

from .fds import Afd, FdSet, FunctionalDependency, Rules, mask_bits
from .partition import StrippedPartition, _class_violations, build_partition, refine
from .relation import Instance


def holds(instance: Instance, fd: FunctionalDependency) -> bool:
    """True iff no two rows agree on fd.lhs while differing on fd.rhs.

    With an empty lhs this asks whether the rhs column is constant. Zero-
    and one-row instances satisfy everything.
    """
    rhs_ord = instance.ordinal(fd.rhs)
    lhs_ords = instance.ordinals(fd.lhs)
    rhs_col = instance.columns[rhs_ord]
    if instance.row_count <= 1:
        return True
    if not lhs_ords:
        return all(c == rhs_col[0] for c in rhs_col)
    cols = [instance.columns[o] for o in lhs_ords]
    seen: dict[tuple[int, ...], int] = {}
    for r in range(instance.row_count):
        key = tuple(col[r] for col in cols)
        prev = seen.setdefault(key, rhs_col[r])
        if prev != rhs_col[r]:
            return False
    return True


def minimal_variants(
    fd: FunctionalDependency, valid: Callable[[FunctionalDependency], bool]
) -> list[FunctionalDependency]:
    """Every holding lhs variant of `fd` at the smallest size, else `fd`.

    Proper lhs subsets are tried bottom-up, the empty one first; `valid`
    says whether a candidate holds wherever the caller validates.
    """
    attrs = sorted(fd.lhs)
    for size in range(len(attrs)):
        candidates = [
            FunctionalDependency(frozenset(sub), fd.rhs)
            for sub in combinations(attrs, size)
        ]
        found = [cand for cand in candidates if valid(cand)]
        if found:
            return found
    return [fd]


def lattice_bits(names: Iterable[str]) -> dict[str, int]:
    """A bit per name; the first name in sorted order takes the highest bit."""
    ordered = sorted(set(names))
    return {a: 1 << (len(ordered) - 1 - i) for i, a in enumerate(ordered)}


class _PartitionCache:
    """Stripped partitions of one instance, keyed by `lattice_bits` mask.

    The parent of an attribute set is the mask minus its lowest bit, that
    is the set without its largest name. The level-wise searches evaluated
    that set one level earlier, so a new partition usually costs one
    `refine` pass over a cached one.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self.bits = lattice_bits(instance.attr_names)
        self._name = {bit: a for a, bit in self.bits.items()}
        self._cache: dict[int, StrippedPartition] = {0: build_partition(instance, ())}

    def mask(self, names: Iterable[str]) -> int:
        return sum(map(self.bits.__getitem__, names))

    def names(self, mask: int) -> frozenset[str]:
        return frozenset(map(self._name.__getitem__, mask_bits(mask)))

    def get(self, mask: int) -> StrippedPartition:
        part = self._cache.get(mask)
        if part is None:
            last = mask & -mask
            part = refine(self.get(mask ^ last), self.instance, self._name[last])
            self._cache[mask] = part
        return part

    def holds(self, lhs: int, rhs_ord: int) -> bool:
        """Exact test: stops at the first lhs class that is not rhs-constant."""
        rhs_col = self.instance.columns[rhs_ord]
        for cls in self.get(lhs).classes:
            first = rhs_col[cls[0]]
            for t in cls:
                if rhs_col[t] != first:
                    return False
        return True

    def error_count(self, lhs: int, rhs_ord: int) -> int:
        count, _ = _class_violations(self.instance, self.get(lhs).classes, rhs_ord)
        return count


def next_lhs_level(masks: Iterable[int]) -> list[int]:
    """Apriori step: unions of two same-size masks differing only in their
    lowest bit, in descending order."""
    by_parent: dict[int, list[int]] = {}
    for m in set(masks):
        by_parent.setdefault(m & (m - 1), []).append(m)
    out = [
        a | b
        for group in by_parent.values()
        for i, a in enumerate(group)
        for b in group[i + 1 :]
    ]
    out.sort(reverse=True)
    return out


def _next_level(kept: Collection[int]) -> list[int]:
    """Apriori step keeping only masks whose one-smaller subsets are all kept.

    A set with a one-smaller subset missing from `kept` contains the lhs of a
    dependency found or implied below, so it is implied too and needs no test.
    The two subsets a candidate was joined from are kept by construction.
    """
    out = []
    for c in next_lhs_level(kept):
        rest = c & (c - 1)
        rest &= rest - 1
        while rest:
            bit = rest & -rest
            if c ^ bit not in kept:
                break
            rest ^= bit
        else:
            out.append(c)
    return out


def discover_fds(
    instance: Instance, epsilon: float = 0.0
) -> tuple[FdSet, list[Afd]]:
    """All minimal exact dependencies, plus minimal approximate ones.

    Exact results are complete regardless of epsilon. An approximate result
    has 0 < error <= epsilon and no lhs subset within the budget.
    """
    cache = _PartitionCache(instance)
    n = instance.row_count
    exact = FdSet()
    afds: list[Afd] = []

    def within_budget(lhs: int, rhs: str, rhs_ord: int) -> bool:
        count = cache.error_count(lhs, rhs_ord)
        if count > epsilon * n:
            return False
        afds.append(Afd(FunctionalDependency(cache.names(lhs), rhs), count / n, count))
        return True

    for rhs in instance.attr_names:
        rhs_ord = instance.ordinal(rhs)
        # level 0: constant column (vacuously constant when there are no rows)
        if cache.holds(0, rhs_ord):
            exact.add(FunctionalDependency(frozenset(), rhs))
            continue
        # each non-dependency lhs of the level below -> whether some subset
        # of it, itself included, is within the error budget
        below = {0: epsilon > 0 and within_budget(0, rhs, rhs_ord)}
        level = [bit for a, bit in cache.bits.items() if a != rhs]
        while level:
            kept: dict[int, bool] = {}
            for lhs in level:
                if cache.holds(lhs, rhs_ord):
                    exact.add(FunctionalDependency(cache.names(lhs), rhs))
                    continue
                kept[lhs] = epsilon > 0 and (
                    any(below[lhs ^ bit] for bit in mask_bits(lhs))
                    or within_budget(lhs, rhs, rhs_ord)
                )
            below = kept
            level = _next_level(kept)
    afds.sort(key=lambda a: a.fd.sort_key())
    return exact, afds


def discover_new_fds(
    instance: Instance,
    known: FdSet | Iterable[FunctionalDependency],
    cache: _PartitionCache | None = None,
) -> FdSet:
    """Minimal dependencies of `instance` not implied by `known`.

    The walk is `discover_fds`'s, on the same masks, except that it skips a
    candidate implied by `known` plus the output found so far for its rhs,
    so the union of `known` and the result implies every dependency holding
    on the instance. `cache` holds partitions of `instance` that other
    readers share; by default the search builds its own.
    """
    if cache is None:
        cache = _PartitionCache(instance)
    # `Rules` gives names bits from the lowest up as it first sees them, so
    # seeding them in ascending bit order gives each its lattice bit
    rules = Rules()
    rules.mask(sorted(cache.bits, reverse=True))
    for d in known:
        rules.add(d)
    out = FdSet()
    for rhs in instance.attr_names:
        rhs_ord = instance.ordinal(rhs)
        goal = cache.bits[rhs]
        found: list[int] = []

        def implied(lhs: int) -> bool:
            # a rule X -> rhs found here fires only once X is within the
            # closure of lhs under `known`, and then reaches the goal
            reach = rules.closure(lhs, goal)
            return bool(reach & goal) or any(not x & ~reach for x in found)

        if not implied(0) and cache.holds(0, rhs_ord):
            out.add(FunctionalDependency(frozenset(), rhs))
            continue
        level = [bit for bit in cache.bits.values() if bit != goal and not implied(bit)]
        while level:
            kept: set[int] = set()
            # a level arrives filtered by `implied`; only what this level
            # finds can prune the rest
            before = len(found)
            for lhs in level:
                if len(found) > before and implied(lhs):
                    continue
                if cache.holds(lhs, rhs_ord):
                    out.add(FunctionalDependency(cache.names(lhs), rhs))
                    found.append(lhs)
                else:
                    kept.add(lhs)
            level = [c for c in _next_level(kept) if not implied(c)]
    return out
