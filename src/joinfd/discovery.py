"""Single-table dependency discovery, and the package's one lattice walk.

`walk` is the apriori search over attribute sets as integer bitmasks that
every search over attribute sets in the package runs on: a mask reaches the
next level only if all its one-smaller subsets were judged False, so a hit
prunes every superset of itself. Single-table mining is one walk per rhs
from the empty set (constant columns) over `lattice_bits`: the first name in
sorted order takes the highest bit, so a mask minus its lowest bit lacks
its largest name, and within one level descending masks come out in
lexicographic order of sorted names. Each partition is refined from the
cached one-smaller subset whose classes hold the fewest rows (a walk has
judged them all), and a candidate is tested exactly by scanning lhs
classes until one disagrees on the rhs. With a nonzero error
budget the search also reports approximate dependencies that are minimal
under the budget (g3 counts), and keeps expanding below them because exact
dependencies may still appear there. `discover_new_fds` also skips every
candidate that the known dependencies, compiled onto the lattice's bits,
plus what it has found for that rhs, imply.
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
    """Per rhs, the minimal exact dependencies not implied by `known`, and
    with a nonzero `epsilon` the minimal approximate ones. With no known
    rules the walk alone prunes above every hit: nothing else is implied."""
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
    exact = FdSet()
    afds: list[Afd] = []
    for rhs in instance.attr_names:
        rhs_ord = instance.ordinal(rhs)
        goal = cache.bits[rhs]
        found: list[int] = []
        # each judged non-dependency -> whether some subset of it, itself
        # included, is within the error budget
        budget: dict[int, bool] = {}

        def verdict(lhs: int) -> bool:
            if check:
                # a rule X -> rhs found here fires only once X is within
                # the closure of lhs under `known`, and then reaches the goal
                reach = rules.closure(lhs, goal)
                if reach & goal or any(not x & ~reach for x in found):
                    return True
            if cache.holds(lhs, rhs_ord):
                exact.add(FunctionalDependency(cache.names(lhs), rhs))
                found.append(lhs)
                return True
            if epsilon > 0:
                within = any(budget[lhs ^ bit] for bit in mask_bits(lhs))
                if not within:
                    count = cache.error_count(lhs, rhs_ord)
                    within = count <= epsilon * n
                    if within:
                        fd = FunctionalDependency(cache.names(lhs), rhs)
                        afds.append(Afd(fd, count / n, count))
                budget[lhs] = within
            return False

        # the empty lhs asks for a constant column (vacuously constant
        # when there are no rows)
        if not verdict(0):
            walk([bit for bit in cache.bits.values() if bit != goal], verdict)
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

    A candidate implied by `known` plus the output found so far for its rhs
    is skipped, so the union of `known` and the result implies every
    dependency holding on the instance. `cache` holds partitions of
    `instance` that other readers share; by default the search builds its
    own.
    """
    return _search(cache or _PartitionCache(instance), known)[0]
