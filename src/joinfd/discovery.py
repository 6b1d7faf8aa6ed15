"""Single-table dependency discovery via level-wise lattice search.

For each right-hand attribute the search walks lhs candidates bottom-up,
starting from the empty set (constant columns), pruning every branch below an
exact hit: a next-level candidate is kept only if every one-smaller lhs subset
was tested and failed, so `discover_fds` needs no implication check. Each
partition is refined from its cached parent, and a candidate is tested
exactly by scanning lhs classes until one disagrees on the rhs. With a nonzero
error budget the search also counts g3 violations and reports approximate
dependencies that are minimal under the budget; it keeps expanding below them
because exact dependencies may still appear there.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Collection, Iterable

from .fds import Afd, FdSet, FunctionalDependency, implies
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


class _PartitionCache:
    """Stripped partitions of one instance, each refined from its parent.

    The parent of an attribute set is the set without its largest name. The
    level-wise searches evaluated that set one level earlier, so a new
    partition usually costs one `refine` pass over a cached one.
    """

    def __init__(self, instance: Instance):
        self.instance = instance
        self._cache: dict[frozenset[str], StrippedPartition] = {
            frozenset(): build_partition(instance, ())
        }

    def get(self, attrs: frozenset[str]) -> StrippedPartition:
        part = self._cache.get(attrs)
        if part is None:
            last = max(attrs)
            part = refine(self.get(attrs - {last}), self.instance, last)
            self._cache[attrs] = part
        return part

    def holds(self, lhs: frozenset[str], rhs_ord: int) -> bool:
        """Exact test: stops at the first lhs class that is not rhs-constant."""
        rhs_col = self.instance.columns[rhs_ord]
        for cls in self.get(lhs).classes:
            first = rhs_col[cls[0]]
            for t in cls:
                if rhs_col[t] != first:
                    return False
        return True

    def error_count(self, lhs: frozenset[str], rhs_ord: int) -> int:
        count, _ = _class_violations(self.instance, self.get(lhs).classes, rhs_ord)
        return count


def next_lhs_level(lhss: Iterable[frozenset[str]]) -> list[frozenset[str]]:
    """Apriori step: unions of two same-size sets sharing all but their last."""
    tuples = sorted({tuple(sorted(s)) for s in lhss})
    out = set()
    for i, a in enumerate(tuples):
        for b in tuples[i + 1 :]:
            if a[:-1] != b[:-1]:
                break
            out.add(frozenset(a) | {b[-1]})
    return sorted(out, key=lambda s: tuple(sorted(s)))


def _next_level(kept: Collection[frozenset[str]]) -> list[frozenset[str]]:
    """Apriori step keeping only sets whose one-smaller subsets are all kept.

    A set with a one-smaller subset missing from `kept` contains the lhs of a
    dependency found or implied below, so it is implied too and needs no test.
    """
    return [c for c in next_lhs_level(kept) if all(c - {a} in kept for a in c)]


def next_level_candidates(
    current: Iterable[FunctionalDependency],
    pruned: FdSet | Iterable[FunctionalDependency],
) -> list[FunctionalDependency]:
    """Per rhs, `_next_level` of `current`'s lhs sets, minus what `pruned` implies."""
    pruned = list(pruned)
    by_rhs: dict[str, set[frozenset[str]]] = {}
    for d in current:
        by_rhs.setdefault(d.rhs, set()).add(d.lhs)
    out = []
    for rhs in sorted(by_rhs):
        for lhs in _next_level(by_rhs[rhs]):
            cand = FunctionalDependency(lhs, rhs)
            if not implies(pruned, cand):
                out.append(cand)
    out.sort(key=FunctionalDependency.sort_key)
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

    def within_budget(lhs: frozenset[str], rhs: str, rhs_ord: int) -> bool:
        count = cache.error_count(lhs, rhs_ord)
        if count > epsilon * n:
            return False
        afds.append(Afd(FunctionalDependency(lhs, rhs), count / n, count))
        return True

    names = list(instance.attr_names)
    for rhs in names:
        rhs_ord = instance.ordinal(rhs)
        # level 0: constant column (vacuously constant when there are no rows)
        if cache.holds(frozenset(), rhs_ord):
            exact.add(FunctionalDependency(frozenset(), rhs))
            continue
        # each non-dependency lhs of the level below -> whether some subset
        # of it, itself included, is within the error budget
        empty = frozenset()
        below = {empty: epsilon > 0 and within_budget(empty, rhs, rhs_ord)}
        level = [frozenset([a]) for a in sorted(names) if a != rhs]
        while level:
            kept: dict[frozenset[str], bool] = {}
            for lhs in level:
                if cache.holds(lhs, rhs_ord):
                    exact.add(FunctionalDependency(lhs, rhs))
                    continue
                kept[lhs] = epsilon > 0 and (
                    any(below[lhs - {a}] for a in lhs)
                    or within_budget(lhs, rhs, rhs_ord)
                )
            below = kept
            level = _next_level(kept)
    afds.sort(key=lambda a: a.fd.sort_key())
    return exact, afds


def discover_new_fds(
    instance: Instance,
    known: FdSet | Iterable[FunctionalDependency],
) -> FdSet:
    """Minimal dependencies of `instance` not implied by `known`.

    The search prunes candidates implied by `known` or by output found so
    far, so the union of `known` and the result implies every dependency
    holding on the instance.
    """
    cache = _PartitionCache(instance)
    known = FdSet(known)
    out = FdSet()
    names = list(instance.attr_names)
    for rhs in names:
        rhs_ord = instance.ordinal(rhs)
        pruning = FdSet(known.as_set())
        base = FunctionalDependency(frozenset(), rhs)
        if not implies(pruning, base) and cache.holds(frozenset(), rhs_ord):
            out.add(base)
            continue
        level = [
            FunctionalDependency(frozenset([a]), rhs)
            for a in sorted(names)
            if a != rhs
        ]
        level = [d for d in level if not implies(pruning, d)]
        while level:
            kept = []
            # a level arrives filtered by `pruning`; only what this level adds
            # to it can prune the rest
            grown = False
            for cand in level:
                if grown and implies(pruning, cand):
                    continue
                if cache.holds(cand.lhs, rhs_ord):
                    out.add(cand)
                    pruning.add(cand)
                    grown = True
                else:
                    kept.append(cand)
            level = next_level_candidates(kept, pruning)
    return out
