"""Single-table dependency discovery via level-wise lattice search.

For each right-hand attribute the search walks lhs candidates bottom-up,
starting from the empty set (constant columns), pruning every branch below an
exact hit. Partitions are cached per attribute set so the error of a
candidate costs one refinement pass. With a nonzero error budget the search
also reports approximate dependencies that are minimal under the budget; it
keeps expanding below them because exact dependencies may still appear there.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable

from .fds import Afd, FdSet, FunctionalDependency, implies
from .partition import StrippedPartition, _class_violations, build_partition
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
    def __init__(self, instance: Instance):
        self.instance = instance
        self._cache: dict[frozenset[str], StrippedPartition] = {}

    def get(self, attrs: frozenset[str]) -> StrippedPartition:
        part = self._cache.get(attrs)
        if part is None:
            part = build_partition(self.instance, attrs)
            self._cache[attrs] = part
        return part

    def error_count(self, lhs: frozenset[str], rhs: str) -> int:
        part = self.get(lhs)
        rhs_ord = self.instance.ordinal(rhs)
        count, _ = _class_violations(self.instance, part.classes, rhs_ord)
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


def next_level_candidates(
    current: Iterable[FunctionalDependency],
    pruned: FdSet | Iterable[FunctionalDependency],
) -> list[FunctionalDependency]:
    """Join same-rhs lhs sets sharing a prefix; drop candidates `pruned` implies."""
    pruned = list(pruned)
    by_rhs: dict[str, list[frozenset[str]]] = {}
    for d in current:
        by_rhs.setdefault(d.rhs, []).append(d.lhs)
    out = []
    for rhs in sorted(by_rhs):
        for lhs in next_lhs_level(by_rhs[rhs]):
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
    names = list(instance.attr_names)
    for rhs in names:
        others = [a for a in names if a != rhs]
        # level 0: constant column (vacuously constant when there are no rows)
        e0 = cache.error_count(frozenset(), rhs)
        if e0 == 0:
            exact.add(FunctionalDependency(frozenset(), rhs))
            continue
        budget_hit_above = n > 0 and epsilon > 0 and e0 <= epsilon * n
        if budget_hit_above:
            afds.append(Afd(FunctionalDependency(frozenset(), rhs), e0 / n, e0))
        exact_b = FdSet(d for d in exact if d.rhs == rhs)
        survivors: dict[frozenset[str], bool] = {}  # lhs -> some subset within budget
        level = [FunctionalDependency(frozenset([a]), rhs) for a in sorted(others)]
        while level:
            next_scores: dict[frozenset[str], bool] = {}
            kept: list[FunctionalDependency] = []
            for cand in level:
                count = cache.error_count(cand.lhs, rhs)
                if count == 0:
                    exact.add(cand)
                    exact_b.add(cand)
                    continue
                tainted = budget_hit_above or any(
                    survivors.get(cand.lhs - {a}, False) for a in cand.lhs
                )
                if epsilon > 0 and count <= epsilon * n and not tainted:
                    afds.append(Afd(cand, count / n, count))
                    tainted = True
                next_scores[cand.lhs] = tainted
                kept.append(cand)
            survivors = next_scores
            level = next_level_candidates(kept, exact_b)
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
        pruning = FdSet(known.as_set())
        base = FunctionalDependency(frozenset(), rhs)
        if not implies(pruning, base) and cache.error_count(frozenset(), rhs) == 0:
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
            for cand in level:
                if implies(pruning, cand):
                    continue
                if cache.error_count(cand.lhs, rhs) == 0:
                    out.add(cand)
                    pruning.add(cand)
                else:
                    kept.append(cand)
            level = next_level_candidates(kept, pruning)
    return out
