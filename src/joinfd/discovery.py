"""Single-table dependency discovery, and the package's one lattice walk.

`walk` is the apriori search over attribute sets as integer bitmasks that
every search over attribute sets in the package runs on: a mask reaches the
next level only if all its one-smaller subsets were judged False, so a hit
prunes every superset of itself. Single-table mining is one walk from the
empty set (constant columns) over `lattice_bits` for every rhs together:
the first name in sorted order takes the highest bit, so a mask minus its
lowest bit lacks its largest name, and within one level descending masks
come out in lexicographic order of sorted names. Like TANE's rhs candidate
sets, each mask carries the rhs bits still open there, and a hit X -> A
also makes X | A dead: A is redundant in every lhs containing it, so the
walk judges no superset of it for any rhs (TANE's rhs+ rule, Huhtala et
al., Comput. J. 1999). Each partition is refined from the cached
one-smaller subset whose classes hold the fewest rows (a walk has judged
them all), and a candidate is tested exactly by scanning lhs classes until
one disagrees on the rhs. With a nonzero error budget the search also
reports approximate dependencies that are minimal under the budget (g3
counts), and keeps expanding below them because exact dependencies may
still appear there; a dead mask has the g3 error of its subset without A,
so the rule prunes no approximate one either. `discover_new_fds` also
counts as a hit every candidate that the known dependencies, compiled onto
the lattice's bits, plus what it has found for that rhs, imply.
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

    A new partition costs one `refine` pass over its parent: of the cached
    one-smaller subsets, the one whose classes hold the fewest rows, since
    `refine` reads only those. The level-wise searches evaluated every such
    subset one level earlier. When none is cached the parent is the mask
    minus its lowest bit, the set without its largest name, built first.
    The classes are the same whichever parent they come from.
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
        cache = self._cache
        part = cache.get(mask)
        if part is None:
            parent = None
            rest = mask
            while rest:
                bit = rest & -rest
                rest ^= bit
                sub = cache.get(mask ^ bit)
                if sub is not None and (parent is None or sub.size < parent.size):
                    parent, added = sub, bit
            if parent is None:
                added = mask & -mask
                parent = self.get(mask ^ added)
            part = refine(parent, self.instance, self._name[added])
            cache[mask] = part
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


def _next_level(kept: Collection[int]) -> list[int]:
    """Apriori step: in descending order, the unions of two same-size kept
    masks differing only in their lowest bit whose one-smaller subsets are
    all kept.

    A set with a one-smaller subset missing from `kept` lies above a mask a
    verdict settled, so it needs none of its own. The two masks joined are
    the union without one of its two lowest bits, so only dropping a bit of
    their intersection can give a subset that is not kept.
    """
    by_parent: dict[int, list[int]] = {}
    for m in kept:
        by_parent.setdefault(m & (m - 1), []).append(m)
    out = []
    for group in by_parent.values():
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                c, rest = a | b, a & b
                while rest:
                    bit = rest & -rest
                    if c ^ bit not in kept:
                        break
                    rest ^= bit
                else:
                    out.append(c)
    out.sort(reverse=True)
    return out


def walk(level: list[int], verdict: Callable[[int], bool]) -> None:
    """Level-wise search up from `level`, the first level's masks.

    `verdict(mask)` is True for a hit or a mask nothing above needs, and no
    superset of such a mask is judged. A mask is judged once, after all its
    one-smaller subsets were judged False; the first level in the order
    given, each later one in descending order. A search from the empty set
    judges it first, then walks the single bits.
    """
    while level:
        level = _next_level({m for m in level if not verdict(m)})


def _search(
    cache: _PartitionCache,
    known: FdSet | Iterable[FunctionalDependency] = (),
    epsilon: float = 0.0,
) -> tuple[FdSet, list[Afd]]:
    """The minimal exact dependencies not implied by `known`, and with a
    nonzero `epsilon` the minimal approximate ones, for every rhs in one
    walk over lhs masks.

    Each mask carries the rhs bits still open there: those open at all its
    one-smaller subsets, less its own bits. An open rhs A is a hit when
    `known` plus what was found for A implies lhs -> A, or when it holds;
    a hit closes A and makes lhs | A dead. Since lhs -> A holds, A is
    redundant in every lhs containing lhs | A, which has the same
    partition as the lhs without A and so the same g3 error for every rhs:
    no such lhs is minimal, exact or within the budget. A dead mask and
    one with nothing open end their branch, and a partition is built only
    for a mask with an open rhs left to scan. With no known rules the
    walk alone prunes above every hit for its rhs: nothing else is
    implied. `known` must hold on the instance, since an implied candidate
    counts as a hit.
    """
    instance = cache.instance
    n = instance.row_count
    rules = Rules()
    if known:
        # `Rules` gives names bits from the lowest up as it first sees them,
        # so seeding them in ascending bit order gives each its lattice bit
        rules.mask(sorted(cache.bits, reverse=True))
        for d in known:
            rules.add(d)
    check = bool(rules.rules)
    name = {bit: a for a, bit in cache.bits.items()}
    rhs_ord = {bit: instance.ordinal(a) for bit, a in name.items()}
    exact = FdSet()
    afds: list[Afd] = []
    # per rhs bit, the lhs masks found for it, in walk order
    found: dict[int, list[int]] = {bit: [] for bit in name}
    # per judged mask, the rhs bits still open there, and (with a budget)
    # those some subset of it, itself included, is within the budget for
    open_at: dict[int, int] = {}
    within_at: dict[int, int] = {}
    # X | A for every hit X -> A: A is redundant in any lhs containing it
    dead: set[int] = set()
    everything = sum(name)
    budget = epsilon > 0

    def verdict(lhs: int) -> bool:
        if lhs in dead:
            return True
        still = everything & ~lhs
        within = 0
        for bit in mask_bits(lhs):
            still &= open_at[lhs ^ bit]
            if budget:
                within |= within_at[lhs ^ bit]
        if still and check:
            # a lhs found for a goal implies it once it lies within the
            # closure of lhs under `known`
            reach = rules.closure(lhs)
        for goal in mask_bits(still):
            if check and (reach & goal or any(not x & ~reach for x in found[goal])):
                pass  # implied: a hit with nothing to report
            elif cache.holds(lhs, rhs_ord[goal]):
                exact.add(FunctionalDependency(cache.names(lhs), name[goal]))
                found[goal].append(lhs)
            else:
                if budget and not within & goal:
                    count = cache.error_count(lhs, rhs_ord[goal])
                    if count <= epsilon * n:
                        within |= goal
                        fd = FunctionalDependency(cache.names(lhs), name[goal])
                        afds.append(Afd(fd, count / n, count))
                continue
            still ^= goal
            dead.add(lhs | goal)
        open_at[lhs] = still
        within_at[lhs] = within
        return not still

    # the empty lhs asks for a constant column (vacuously constant when
    # there are no rows)
    if not verdict(0):
        walk(list(name), verdict)
    afds.sort(key=lambda a: a.fd.sort_key())
    return exact, afds


def discover_fds(
    instance: Instance, epsilon: float = 0.0
) -> tuple[FdSet, list[Afd]]:
    """All minimal exact dependencies, plus minimal approximate ones.

    Exact results are complete regardless of epsilon. An approximate result
    has 0 < error <= epsilon and no lhs subset within the budget.
    """
    return _search(_PartitionCache(instance), epsilon=epsilon)


def discover_new_fds(
    instance: Instance,
    known: FdSet | Iterable[FunctionalDependency],
    cache: _PartitionCache | None = None,
) -> FdSet:
    """Minimal dependencies of `instance` not implied by `known`.

    Every `known` dependency must hold on `instance`. A candidate implied
    by `known` plus the output found so far for its rhs is skipped, and,
    like a found one, it prunes every lhs containing its lhs and rhs, which
    is sound only for a dependency that holds. So the union of `known` and
    the result implies every dependency holding on the instance. `cache`
    holds partitions of `instance` that other readers share; by default the
    search builds its own.
    """
    return _search(cache or _PartitionCache(instance), known)[0]
