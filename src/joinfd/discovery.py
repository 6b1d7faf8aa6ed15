"""Single-table dependency discovery, and the package's one lattice walk.

`walk` is the apriori search over attribute sets as integer bitmasks that
every search over attribute sets in the package runs on: a mask reaches the
next level only if all its one-smaller subsets were judged False, so a hit
prunes every superset of itself. Besides single-table mining, inference's
determiner search and stage 3's anchor and lhs walks (`mine`) run on it;
the lhs walk alone finds the minimal lhs of a join dependency, on the
join's validator. Single-table mining is one walk from the empty set
(constant columns) over `lattice_bits` for every rhs together:
the first name in sorted order takes the highest bit, so a mask minus its
lowest bit lacks its largest name, and within one level descending masks
come out in lexicographic order of sorted names. Like TANE's rhs candidate
sets, each mask carries the rhs bits still open there, and a hit X -> A
also makes X | A dead: A is redundant in every lhs containing it, so the
walk judges no superset of it for any rhs (TANE's rhs+ rule, Huhtala et
al., Comput. J. 1999). Each partition is refined from the cached
one-smaller subset whose classes hold the fewest rows (a walk has judged
them all), and a candidate is tested exactly by scanning lhs classes until
one disagrees on the rhs.
"""

from __future__ import annotations

from typing import Callable, Collection, Iterable, Sequence

from .fds import FdSet, FunctionalDependency, mask_bits
from .partition import StrippedPartition, build_partition, refine
from .relation import Instance


def holds_within(
    rows: Iterable[int], lhs_cols: Sequence[Sequence[int]], rhs_col: Sequence[int]
) -> bool:
    """Do the given rows that agree on every `lhs_cols` column agree on
    `rhs_col`? With no lhs column, are they constant on `rhs_col`?"""
    seen: dict[tuple[int, ...], int] = {}
    for r in rows:
        if seen.setdefault(tuple(col[r] for col in lhs_cols), rhs_col[r]) != rhs_col[r]:
            return False
    return True


def holds(instance: Instance, fd: FunctionalDependency) -> bool:
    """True iff no two rows agree on fd.lhs while differing on fd.rhs.

    With an empty lhs this asks whether the rhs column is constant. Zero-
    and one-row instances satisfy everything.
    """
    rhs_col = instance.columns[instance.ordinal(fd.rhs)]
    lhs_cols = [instance.columns[o] for o in instance.ordinals(fd.lhs)]
    return holds_within(range(instance.row_count), lhs_cols, rhs_col)


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


def _search(cache: _PartitionCache) -> FdSet:
    """The minimal exact dependencies for every rhs, in one walk over lhs
    masks.

    Each mask carries the rhs bits still open there: those open at all its
    one-smaller subsets, less its own bits. An open rhs A is a hit when
    lhs -> A holds; a hit closes A and makes lhs | A dead. Since lhs -> A
    holds, A is redundant in every lhs containing lhs | A, which has the
    same partition as the lhs without A: no such lhs is minimal for any
    rhs. A dead mask and one with nothing open end their branch, and a
    partition is built only for a mask with an open rhs left to scan.
    """
    name = {bit: a for a, bit in cache.bits.items()}
    rhs_ord = {bit: cache.instance.ordinal(a) for bit, a in name.items()}
    exact = FdSet()
    # per judged mask, the rhs bits still open there
    open_at: dict[int, int] = {}
    # X | A for every hit X -> A: A is redundant in any lhs containing it
    dead: set[int] = set()
    everything = sum(name)

    def verdict(lhs: int) -> bool:
        if lhs in dead:
            return True
        still = everything & ~lhs
        for bit in mask_bits(lhs):
            still &= open_at[lhs ^ bit]
        for goal in mask_bits(still):
            if cache.holds(lhs, rhs_ord[goal]):
                exact.add(FunctionalDependency(cache.names(lhs), name[goal]))
                still ^= goal
                dead.add(lhs | goal)
        open_at[lhs] = still
        return not still

    # the empty lhs asks for a constant column (vacuously constant when
    # there are no rows)
    if not verdict(0):
        walk(list(name), verdict)
    return exact


def discover_fds(instance: Instance) -> FdSet:
    """All minimal exact dependencies of `instance`."""
    return _search(_PartitionCache(instance))


def discover_new_fds(
    instance: Instance, cache: _PartitionCache | None = None
) -> FdSet:
    """All minimal exact dependencies of `instance`, on the partitions in
    `cache` that other readers share; by default the search builds its own.

    This is `discover_fds` with a shared cache: upstaging mines each
    side's join rows with it (`JoinContext.side_partitions`), and stage 0 a
    padded side's input table (`JoinContext.input_partitions`). The
    benchmark's tracer resolves `discover_new_fds` by name to time that
    mining, so it stays until the benchmark drops that name.
    """
    return _search(cache or _PartitionCache(instance))
