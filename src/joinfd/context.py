"""Shared state for the pipeline stages working over one join.

The context owns the value-level join profile, name mapping between side
attributes and join-result attributes, the per-side sub-instances (the join's
row set restricted to one side's columns), a cache of partial joins keyed
by kept attribute sets, and the streaming validator's layout: each
participating join-value group's columns as integer code slabs, built once
on first use. Counters record how much was materialized, which is the
frugality evidence the report exposes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

from .discovery import holds
from .errors import InternalInvariantError, JoinSpecError
from .fds import FunctionalDependency
from .joins import (
    JoinKind,
    JoinProfile,
    JoinSpec,
    PADS_LEFT_ATTRS,
    PADS_RIGHT_ATTRS,
    SEMI_KINDS,
    join_attr_directions,
    join_profile,
    left_name_map,
    partial_join,
    result_schema,
    right_name_map,
)
from .relation import NULL_CODE, Instance, append_padding, take_rows


@dataclass
class Counters:
    candidates_validated: int = 0
    partial_joins_built: int = 0
    partial_join_rows: int = 0
    full_join_rows: int = 0
    sample_join_rows: int = 0

    def to_json(self) -> dict:
        return {
            "candidates_validated": self.candidates_validated,
            "partial_joins_built": self.partial_joins_built,
            "partial_join_rows": self.partial_join_rows,
            "full_join_rows": self.full_join_rows,
            "sample_join_rows": self.sample_join_rows,
        }


class JoinContext:
    """Caches and bookkeeping for one (left, right, spec) triple."""

    def __init__(self, left: Instance, right: Instance, spec: JoinSpec):
        spec.validate(left, right)
        self.left = left
        self.right = right
        self.spec = spec
        self.counters = Counters()
        self.warnings: list[str] = []
        self.profile: JoinProfile = join_profile(left, right, spec)
        self.lmap = left_name_map(left, right, spec)
        self.rmap = right_name_map(left, right, spec)
        # join name -> (side, base name); left wins merged natural columns
        self.owner: dict[str, tuple[str, str]] = {}
        for base, qual in self.rmap.items():
            self.owner[qual] = ("right", base)
        for base, qual in self.lmap.items():
            self.owner[qual] = ("left", base)
        self._partials: dict[tuple[frozenset, frozenset], Instance] = {}
        self._directions: tuple[bool, bool] | None = None
        self._sides: dict[str, Instance | None] = {}
        self._layout: tuple[list[tuple], dict[str, tuple[int, int]]] | None = None

    # -- schema ------------------------------------------------------------

    def join_attr_names(self) -> list[str]:
        if self.spec.kind in SEMI_KINDS:
            kept = self.spec.left_on if self.spec.kind is JoinKind.LEFT_SEMI else self.spec.right_on
            return list(kept)
        names = [self.lmap[a] for a in self.spec.left_on]
        if not self.spec.natural:
            names += [self.rmap[a] for a in self.spec.right_on]
        return names

    def schema(self) -> list[str]:
        return result_schema(self.left, self.right, self.spec)

    def split(self, attrs) -> tuple[set[str], set[str]]:
        """Split join-result attribute names into per-side base names."""
        left_base: set[str] = set()
        right_base: set[str] = set()
        for name in attrs:
            try:
                side, base = self.owner[name]
            except KeyError:
                raise JoinSpecError(f"unknown join attribute {name!r}") from None
            (left_base if side == "left" else right_base).add(base)
        return left_base, right_base

    # -- join structure ------------------------------------------------------

    def directions(self) -> tuple[bool, bool]:
        """(left join attrs determine right ones, and the converse)."""
        if self._directions is None:
            self._directions = join_attr_directions(
                self.left, self.right, self.spec, self.profile
            )
        return self._directions

    def pads_left(self) -> bool:
        return self.spec.kind in PADS_LEFT_ATTRS and bool(self.profile.dangling_right)

    def pads_right(self) -> bool:
        return self.spec.kind in PADS_RIGHT_ATTRS and bool(self.profile.dangling_left)

    def result_rows(self) -> int | None:
        """Closed-form row count of the join, or None for semi-joins."""
        if self.spec.kind in SEMI_KINDS:
            return None
        return self.profile.rows_for(self.spec.kind)

    def side_subinstance(self, side: str) -> Instance | None:
        """The join's row set restricted to one side's attributes.

        For the dropped side of a semi-join there is no such thing (its
        attributes are absent from the result), hence None. Outer padding
        is modelled by appended padding rows; row multiplicity never affects
        dependency validity, so one row stands for all padding rows that
        agree. Under an equi-join that is a single all-null row. Under a
        natural join the merged key columns of a padding row carry the
        other side's join value, so there is one padding row per dangling
        join value of the other side, null outside the key columns.
        """
        if side in self._sides:
            return self._sides[side]
        kind = self.spec.kind
        if side == "left":
            inst, shared_ok, padded = (
                self.left,
                kind is not JoinKind.RIGHT_SEMI,
                self.pads_left(),
            )
        elif side == "right":
            inst, shared_ok, padded = (
                self.right,
                kind is not JoinKind.LEFT_SEMI,
                self.pads_right(),
            )
        else:  # pragma: no cover
            raise InternalInvariantError(f"unknown side {side!r}")
        if not shared_ok:
            self._sides[side] = None
            return None
        if kind in PADS_RIGHT_ATTRS and side == "left":
            sub = inst  # every left row survives a left/full outer join
        elif kind in PADS_LEFT_ATTRS and side == "right":
            sub = inst
        else:
            sub = take_rows(inst, self.profile.rows(side, self.profile.shared))
        if padded and self.spec.natural:
            if side == "left":
                on, dangling = self.spec.left_on, self.profile.dangling_right
            else:
                on, dangling = self.spec.right_on, self.profile.dangling_left
            values = sorted(dangling, key=lambda v: tuple(str(x) for x in v))
            sub = append_padding(sub, [inst.ordinal(a) for a in on], values)
        elif padded:
            sub = append_padding(sub, (), [()])
        self._sides[side] = sub
        return sub

    # -- materialization -----------------------------------------------------

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

    def carrier_for(self, fd: FunctionalDependency) -> Instance:
        left_base, right_base = self.split(set(fd.lhs) | {fd.rhs})
        return self.partial(left_base, right_base)

    def holds_on_join(self, fd: FunctionalDependency, carrier: Instance | None = None) -> bool:
        """Validate a dependency (join-result names) on a partial join."""
        if carrier is None:
            carrier = self.carrier_for(fd)
        self.counters.candidates_validated += 1
        return holds(carrier, fd)

    # -- streaming validation (no materialization) ---------------------------

    def check_fd(self, fd: FunctionalDependency) -> bool:
        """Validate a dependency on the join without materializing any rows.

        Walks the participating join-value groups (the shared ones plus the
        dangling ones an outer operator pads). In each group, the side that
        carries the rhs is projected to its distinct (lhs part, rhs code)
        pairs and the other side to its distinct lhs parts; crossing the
        two gives the group's distinct join rows over the dependency's
        columns, and one map from lhs tuples to rhs codes spans all groups.
        Codes serve as values: within one column code equality is value
        equality, and padding is NULL_CODE.
        """
        self.counters.candidates_validated += 1
        if self._layout is None:
            self._layout = self._build_layout()
        groups, source = self._layout
        cols: tuple[list[int], list[int]] = ([], [])
        for name in fd.lhs:
            side, column = source[name]
            cols[side].append(column)
        own, rhs_column = source[fd.rhs]
        own_cols, other_cols = cols[own], cols[1 - own]
        seen: dict[tuple, object] = {}
        for group in groups:
            own_slabs, other_slabs = group[own], group[1 - own]
            parts = zip(*[own_slabs[c] for c in own_cols]) if own_cols else repeat(())
            pairs = set(zip(parts, own_slabs[rhs_column]))
            rests = (
                set(zip(*[other_slabs[c] for c in other_cols])) if other_cols else {()}
            )
            for part, value in pairs:
                for rest in rests:
                    if seen.setdefault((part, rest), value) != value:
                        return False
        return True

    def _build_layout(self) -> tuple[list[tuple], dict[str, tuple[int, int]]]:
        """Participating groups as code slabs, and where each column lives.

        A group is a (left slabs, right slabs) pair holding one group-major
        code tuple per column of that side; a padded side holds one all-null
        row. Under a natural join the left slabs also carry one slab per
        merged column, after the left's own columns: a merged column takes
        the present side's join value on padded rows too, so it is constant
        within a group and read off the group's join value. Each join-result
        name maps to (side, slab index), with side 0 for left and 1 for
        right.
        """
        profile, spec = self.profile, self.spec
        merged = range(len(spec.left_on) if spec.natural else 0)

        def slabs(inst: Instance, rows: list[int] | None) -> list[tuple]:
            if rows is None:
                return [(NULL_CODE,)] * len(inst.columns)
            return [tuple(col[r] for r in rows) for col in inst.columns]

        def left_slabs(v: tuple, rows: list[int] | None) -> list[tuple]:
            width = 1 if rows is None else len(rows)
            return slabs(self.left, rows) + [(v[p],) * width for p in merged]

        lg, rg = profile.left_groups, profile.right_groups
        values = [(v, lg[v], rg[v]) for v in profile.shared]
        if self.pads_right():
            values += [(v, lg[v], None) for v in profile.dangling_left]
        if self.pads_left():
            values += [(v, None, rg[v]) for v in profile.dangling_right]
        groups = [(left_slabs(v, lr), slabs(self.right, rr)) for v, lr, rr in values]
        source: dict[str, tuple[int, int]] = {}
        for base, name in self.rmap.items():
            source[name] = (1, self.right.ordinal(base))
        for base, name in self.lmap.items():
            source[name] = (0, self.left.ordinal(base))
        for p in merged:
            source[self.lmap[spec.left_on[p]]] = (0, len(self.left.columns) + p)
        return groups, source
