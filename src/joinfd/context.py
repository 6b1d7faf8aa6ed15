"""Shared state for the pipeline stages working over one join.

The context owns the value-level join profile, name mapping between side
attributes and join-result attributes, each input table's own dependency
set (mined on first use) and its members that survive on the side's join
rows (`survivors`), the per-side sub-instances (the join's row set
restricted to one side's columns, with one padding row per dangling join
value of the other side under outer padding), a cache of partial joins
keyed by kept attribute sets, and the validator's caches: each
sub-instance row's join-value group, per-side stripped partitions refined from
cached parents (shared through `side_partitions` with upstaging, the
survivors test and the tagger), and per (side, lhs part) a link table of
the groups each partition class spans, each built on first use and reused
by every later candidate. The validator answers a candidate from one
side's partition of its lhs part there and the link table of the other
side's, copying no rows. Every rejected candidate leaves a counterexample:
the agree set of the two join rows that violate it, a bitmask over
`join_bits`. It refutes every dependency whose lhs lies inside it and
whose rhs lies outside, so it is filed under each join name outside it,
and per name only the maximal agree sets are kept (`agree_sets`).
`refutes` reads them, so mining and inference can drop a candidate that
fits inside one without validating it. Counters record how much was
materialized, which is the frugality evidence the report exposes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

from .discovery import _PartitionCache, discover_fds, holds, lattice_bits
from .errors import InternalInvariantError, JoinSpecError
from .fds import FdSet, FunctionalDependency
from .joins import (
    JoinKind,
    JoinProfile,
    JoinSpec,
    PADS_LEFT_ATTRS,
    PADS_RIGHT_ATTRS,
    SEMI_KINDS,
    join_attr_directions,
    join_profile,
    name_maps,
    pad_rows,
    partial_join,
)
from .relation import Instance, take_rows


@dataclass
class Counters:
    candidates_validated: int = 0
    candidates_refuted: int = 0
    candidates_implied: int = 0
    partial_joins_built: int = 0
    partial_join_rows: int = 0
    full_join_rows: int = 0
    sample_join_rows: int = 0

    def to_json(self) -> dict:
        return asdict(self)


class JoinContext:
    """Caches and bookkeeping for one (left, right, spec) triple."""

    def __init__(self, left: Instance, right: Instance, spec: JoinSpec):
        spec.validate(left, right)
        self.lmap, self.rmap = name_maps(left, right, spec)  # refuses collisions
        self.left = left
        self.right = right
        self.spec = spec
        self.counters = Counters()
        self.profile: JoinProfile = join_profile(left, right, spec)
        # join name -> (side, base name); left wins merged natural columns,
        # and a semi-join's names are its kept side's
        self.owner: dict[str, tuple[str, str]] = {}
        if spec.kind is not JoinKind.LEFT_SEMI:
            for base, qual in self.rmap.items():
                self.owner[qual] = ("right", base)
        if spec.kind is not JoinKind.RIGHT_SEMI:
            for base, qual in self.lmap.items():
                self.owner[qual] = ("left", base)
        # merged natural key column -> its position in a join value
        self._merged: dict[str, int] = {}
        if spec.natural and spec.kind not in SEMI_KINDS:
            self._merged = {self.lmap[a]: p for p, a in enumerate(spec.left_on)}
        self._partials: dict[tuple[frozenset, frozenset], Instance] = {}
        self._directions: tuple[bool, bool] | None = None
        self._sides: dict[str, Instance | None] = {}
        self._input_fds: dict[str, FdSet] = {}
        self._survivors: dict[str, FdSet] = {}
        self._layouts: dict[str, tuple[Sequence[int], list[int]] | None] = {}
        # validator caches, see check_fd
        self._groups: dict[str, list[int]] = {}
        self._partitions: dict[str, _PartitionCache] = {}
        self._links_of: dict[tuple[str, frozenset[str]], tuple[list, list]] = {}
        # counterexamples, see check_fd and refutes
        self.join_bits: dict[str, int] = lattice_bits(self.owner)
        self.agree_sets: dict[str, list[int]] = {}
        self._agree_columns: list[tuple[int, str, Sequence[int]]] = []

    # -- join structure ------------------------------------------------------

    def directions(self) -> tuple[bool, bool]:
        """(left join attrs determine right ones, and the converse)."""
        if self._directions is None:
            self._directions = join_attr_directions(self.spec, self.profile)
        return self._directions

    def pads_left(self) -> bool:
        return self.spec.kind in PADS_LEFT_ATTRS and bool(self.profile.dangling_right)

    def pads_right(self) -> bool:
        return self.spec.kind in PADS_RIGHT_ATTRS and bool(self.profile.dangling_left)

    def dropped_side(self) -> str | None:
        """The side whose attributes a semi-join leaves out, else None."""
        return {JoinKind.LEFT_SEMI: "right", JoinKind.RIGHT_SEMI: "left"}.get(
            self.spec.kind
        )

    def result_rows(self) -> int | None:
        """Closed-form row count of the join, or None for semi-joins."""
        if self.spec.kind in SEMI_KINDS:
            return None
        return self.profile.rows_for(self.spec.kind)

    def input_fds(self, side: str) -> FdSet:
        """The minimal exact dependencies of one side's input table, mined
        on first use."""
        if side not in self._input_fds:
            inst = self.left if side == "left" else self.right
            self._input_fds[side] = discover_fds(inst)
        return self._input_fds[side]

    def survivors(self, side: str) -> FdSet:
        """The members of `input_fds(side)` that hold on the side's join
        rows, worked out once per side.

        They are judged in `input_fds` order, so the side partitions they
        build do not depend on the hash seed.
        """
        if side not in self._survivors:
            self._survivors[side] = FdSet(
                d for d in self.input_fds(side) if self.holds_on_side(side, d)
            )
        return self._survivors[side]

    def holds_on_side(self, side: str, fd: FunctionalDependency) -> bool:
        """Does `fd`, in the side's base names, hold on `side_subinstance(side)`?

        Read off the side partitions the validator shares
        (`side_partitions`).
        """
        cache = self.side_partitions(side)
        return cache.holds(cache.mask(fd.lhs), cache.instance.ordinal(fd.rhs))

    def side_subinstance(self, side: str) -> Instance | None:
        """The join's row set restricted to one side's attributes.

        For the dropped side of a semi-join there is no such thing (its
        attributes are absent from the result), hence None. Outer padding
        is modelled by appended padding rows, one per dangling join value
        of the other side, so every row belongs to exactly one join-value
        group; they are padded as the join pads them (`pad_rows`). Row
        multiplicity never affects dependency validity, so one row stands
        for all padding rows of its group.
        """
        if side not in self._sides:
            layout = self._side_rows(side)
            sub = None
            if layout is not None:
                rows, pads = layout
                inst = self.left if side == "left" else self.right
                sub = inst if len(rows) == inst.row_count else take_rows(inst, rows)
                on = self.spec.left_on if side == "left" else self.spec.right_on
                sub = pad_rows(sub, on, self.spec, self.profile, pads)
            self._sides[side] = sub
        return self._sides[side]

    def _side_rows(self, side: str) -> tuple[Sequence[int], list[int]] | None:
        """Where the rows of `side_subinstance(side)` come from, in order.

        The ascending ids of the side's rows that survive the join, and the
        group ids of the other side's dangling join values it is padded
        for; None for the dropped side of a semi-join. Worked out once per
        side.
        """
        if side not in self._layouts:
            self._layouts[side] = self._layout(side)
        return self._layouts[side]

    def _layout(self, side: str) -> tuple[Sequence[int], list[int]] | None:
        """A side's surviving rows, picked by group id, and its padding ids.

        Every row survives an outer join that preserves its side; otherwise
        the rows whose join value is shared survive. Padding ids are in
        order of their value's text.
        """
        kind, profile = self.spec.kind, self.profile
        if side == "left":
            inst, padded = self.left, self.pads_left()
            preserved, dangling = kind in PADS_RIGHT_ATTRS, profile.dangling_right
        elif side == "right":
            inst, padded = self.right, self.pads_right()
            preserved, dangling = kind in PADS_LEFT_ATTRS, profile.dangling_left
        else:  # pragma: no cover
            raise InternalInvariantError(f"unknown side {side!r}")
        if side == self.dropped_side():
            return None
        if preserved:
            rows: Sequence[int] = range(inst.row_count)
        else:
            n_shared = profile.n_shared
            rows = [r for r, g in enumerate(profile.ids(side)) if g < n_shared]
        pads: list[int] = []
        if padded:
            # a null and the text "None" print alike: the null goes last
            values = profile.values
            pads = sorted(
                dangling,
                key=lambda g: (
                    tuple(str(x) for x in values[g]),
                    tuple(x is None for x in values[g]),
                ),
            )
        return rows, pads

    # -- materialization -----------------------------------------------------
    # No stage validates on partial joins any more; the benchmark's tracer
    # still resolves `partial` and `holds_on_join` by name, so they stay
    # until the benchmark drops those names.

    def partial(self, left_attrs, right_attrs) -> Instance:
        """Distinct partial join keeping the given per-side base attributes.

        Join attributes are always included. Any cached carrier whose kept
        sets cover the request is reused; dependency validity over a column
        subset is unaffected by extra columns. Each actual build adds its
        row count to the counters.
        """
        lk = frozenset(left_attrs) | set(self.spec.left_on)
        rk = frozenset(right_attrs) | set(self.spec.right_on)
        inst = self._partials.get((lk, rk))
        if inst is not None:
            return inst
        for (cl, cr), cached in self._partials.items():
            if lk <= cl and rk <= cr:
                return cached
        inst = partial_join(self.left, self.right, self.spec, lk, rk, distinct=True)
        self._partials[(lk, rk)] = inst
        self.counters.partial_joins_built += 1
        self.counters.partial_join_rows += inst.row_count
        return inst

    def holds_on_join(self, fd: FunctionalDependency) -> bool:
        """Validate a dependency (join-result names) on the partial join
        keeping its attributes."""
        kept: dict[str, set[str]] = {"left": set(), "right": set()}
        for name in fd.lhs | {fd.rhs}:
            try:
                side, base = self.owner[name]
            except KeyError:
                raise JoinSpecError(f"unknown join attribute {name!r}") from None
            kept[side].add(base)
        self.counters.candidates_validated += 1
        return holds(self.partial(kept["left"], kept["right"]), fd)

    # -- validation on side partitions (no materialization) ----------------

    def check_fd(self, fd: FunctionalDependency) -> bool:
        """Validate a dependency on the join without materializing any rows.

        The dependency splits as X ∪ E -> b. The rhs b lives on side J, X
        holds the lhs names of the other side I, and E the rest: side J's
        names and the merged natural key columns, which are constant within
        a join-value group and read off side J's key columns. A merged rhs
        goes to the side holding fewer lhs names. In the sub-instances every
        row lies in one participating group (a shared join value, or a
        dangling one an outer operator pads), and a group joins each of its
        side-I rows with each of its side-J rows. So two side-J rows meet
        on X in the join iff their groups are one, or some class of π_X
        over side I's rows spans both. `_links` gives each group the tokens
        that say this: one per such class, or the group's own when no class
        spans it. The dependency fails iff some class of side J's cached
        partition π_E holds two rows that differ on b and whose groups share
        a token; the scan stops at the first such pair.

        A rejection records its witness: that pair r1 and r2, joined with
        side-I rows l1 and l2 of their groups taken from the class behind
        the shared token, or one side-I row of their common group when the
        token is the group's own. See `_witness`.
        """
        self.counters.candidates_validated += 1
        names: dict[str, set[str]] = {"left": set(), "right": set()}
        positions = []
        for name in fd.lhs:
            if name in self._merged:
                positions.append(self._merged[name])
            else:
                side, base = self.owner[name]
                names[side].add(base)
        rhs_pos = self._merged.get(fd.rhs)
        if rhs_pos is None:
            j, b = self.owner[fd.rhs]
        else:
            j = "right" if len(names["left"]) >= len(names["right"]) else "left"
        on = self.spec.left_on if j == "left" else self.spec.right_on
        if rhs_pos is not None:
            b = on[rhs_pos]
        i = "right" if j == "left" else "left"
        tokens, classes = self._links(i, frozenset(names[i]))
        labels = self._row_groups(j)
        cache = self.side_partitions(j)
        b_col = cache.instance.columns[cache.instance.ordinal(b)]
        e = names[j].union(on[p] for p in positions)
        for cls in cache.get(cache.mask(e)).classes:
            first: dict[int, int] = {}
            for r in cls:
                for token in tokens[labels[r]]:
                    t = first.setdefault(token, r)
                    if b_col[t] != b_col[r]:
                        self._witness(fd.rhs, i, classes[token], t, r)
                        return False
        return True

    def refutes(self, mask: int, rhs: str) -> bool:
        """Is `mask` (over `join_bits`) -> rhs false on the join by a
        recorded counterexample, that is, inside an agree set filed under
        rhs?"""
        for agree in self.agree_sets.get(rhs, ()):
            if not mask & ~agree:
                return True
        return False

    def _witness(
        self, rhs: str, i: str, cls: Sequence[int] | None, r1: int, r2: int
    ) -> None:
        """Keep the agree set of the join rows (l1, r1) and (l2, r2).

        r1 and r2 are rows of side J's sub-instance that violate a candidate
        with this rhs; l1 and l2 are rows of side I's from their groups,
        the first of `cls` in each when given, else the first of their
        common group. Both join rows exist, since a participating group
        joins every side-I row with every side-J row. A join name agrees
        when its owning side's codes agree; a merged natural key column is
        owned by the left side, whose key columns carry every row's join
        value, padding rows included. The agree set is filed under every
        join name outside it, rhs among them, unless one filed there
        already contains it; it displaces the ones it contains.
        """
        if self.spec.kind in SEMI_KINDS:  # nothing mines a semi-join
            return
        j = "right" if i == "left" else "left"
        labels_j = self._row_groups(j)
        labels_i = self._row_groups(i)
        g1, g2 = labels_j[r1], labels_j[r2]
        if cls is None:
            l1 = l2 = labels_i.index(g1)
        else:
            l1 = next(t for t in cls if labels_i[t] == g1)
            l2 = next(t for t in cls if labels_i[t] == g2)
        if not self._agree_columns:
            for name, bit in self.join_bits.items():
                side, base = self.owner[name]
                sub = self.side_subinstance(side)
                self._agree_columns.append((bit, side, sub.columns[sub.ordinal(base)]))
        rows = {i: (l1, l2), j: (r1, r2)}
        mask = 0
        for bit, side, col in self._agree_columns:
            t1, t2 = rows[side]
            if col[t1] == col[t2]:
                mask |= bit
        for name, bit in self.join_bits.items():
            if bit & mask:
                continue
            kept = self.agree_sets.setdefault(name, [])
            if any(not mask & ~agree for agree in kept):
                continue
            kept[:] = [agree for agree in kept if agree & ~mask]
            kept.append(mask)

    def _row_groups(self, side: str) -> list[int]:
        """Each row's group id in `side_subinstance(side)`: the profile's id
        of its join value, a padding row taking the id it pads for.

        Both sides' sub-instances carry the same ids, the shared ones and
        the dangling ones an outer operator pads, so the validator compares
        groups across sides by id. Ids follow first-row order, so the
        witnesses `check_fd` records do not depend on set iteration order.
        """
        if side not in self._groups:
            rows, pads = self._side_rows(side)
            ids = self.profile.ids(side)
            if isinstance(rows, range):
                labels = list(ids)
            else:
                labels = list(map(ids.__getitem__, rows))
            labels += pads
            if max(labels, default=-1) >= len(self.profile.keys):
                raise InternalInvariantError(f"a {side} row is in no join-value group")
            self._groups[side] = labels
        return self._groups[side]

    def _links(
        self, i: str, x: frozenset[str]
    ) -> tuple[list[tuple[int, ...]], list[Sequence[int] | None]]:
        """Per join-value group, the tokens of the groups it meets on X.

        A class of π_X over `side_subinstance(i)` that spans several groups
        links them: each gets the class's token, the first class per set
        of spanned groups standing for the rest. A group no class spans
        meets only itself and keeps a token of its own. The second list
        gives each token its class, or None for a group's own. An empty X
        has one class holding every row, so it links every group.
        """
        key = (i, x)
        if key not in self._links_of:
            labels = self._row_groups(i)
            cache = self.side_partitions(i)
            groups = max(labels, default=-1) + 1
            tokens: list[tuple[int, ...]] = [()] * groups
            classes: list[Sequence[int] | None] = [None] * groups
            seen: set[frozenset[int]] = set()
            for cls in cache.get(cache.mask(x)).classes:
                span = frozenset(map(labels.__getitem__, cls))
                if len(span) > 1 and span not in seen:
                    seen.add(span)
                    for g in span:
                        tokens[g] += (len(classes),)
                    classes.append(cls)
            tokens = [t or (g,) for g, t in enumerate(tokens)]
            self._links_of[key] = (tokens, classes)
        return self._links_of[key]

    def side_partitions(self, side: str) -> _PartitionCache:
        """Stripped partitions of `side_subinstance(side)`, shared by every
        stage that reads that sub-instance's partitions."""
        if side not in self._partitions:
            self._partitions[side] = _PartitionCache(self.side_subinstance(side))
        return self._partitions[side]
