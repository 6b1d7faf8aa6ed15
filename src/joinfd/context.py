"""Shared state for the pipeline stages working over one join.

The context owns the value-level join profile, name mapping between side
attributes and join-result attributes, the per-side sub-instances (the join's
row set restricted to one side's columns), and a cache of partial joins keyed
by kept attribute sets. Counters record how much was materialized, which is
the frugality evidence the report exposes.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .relation import Instance, append_null_row, take_rows


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
        is modelled by one appended all-null row: row multiplicity never
        affects dependency validity, so one row stands for all padding.
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
        if padded:
            sub = append_null_row(sub)
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

        Walks the join-value groups of both sides (plus the padded groups an
        outer operator adds), deduplicated on the columns the dependency
        touches, and checks map consistency from lhs tuples to the rhs cell.
        Works on decoded values so merged natural-join columns can take the
        surviving side's value on padded rows.
        """
        self.counters.candidates_validated += 1
        attrs = sorted(fd.lhs)
        cells = [self._accessor(a) for a in attrs]
        rhs_cell = self._accessor(fd.rhs)
        seen: dict[tuple, str | None] = {}
        missing = object()

        def feed(lrow, rrow) -> bool:
            key = tuple(cell(lrow, rrow) for cell in cells)
            value = rhs_cell(lrow, rrow)
            prev = seen.get(key, missing)
            if prev is missing:
                seen[key] = value
                return True
            return prev == value

        lgroups = self.profile.left_groups
        rgroups = self.profile.right_groups
        for v in self.profile.shared:
            lrows = self._distinct_on(self.left, lgroups[v], attrs, fd.rhs, "left")
            rrows = self._distinct_on(self.right, rgroups[v], attrs, fd.rhs, "right")
            for lrow in lrows:
                for rrow in rrows:
                    if not feed(lrow, rrow):
                        return False
        if self.pads_right():
            for v in self.profile.dangling_left:
                for lrow in self._distinct_on(
                    self.left, lgroups[v], attrs, fd.rhs, "left"
                ):
                    if not feed(lrow, None):
                        return False
        if self.pads_left():
            for v in self.profile.dangling_right:
                for rrow in self._distinct_on(
                    self.right, rgroups[v], attrs, fd.rhs, "right"
                ):
                    if not feed(None, rrow):
                        return False
        return True

    def _distinct_on(self, inst, rows, lhs_attrs, rhs, side) -> list[int]:
        ords = []
        for name in list(lhs_attrs) + [rhs]:
            owner_side, base = self.owner[name]
            if owner_side == side:
                ords.append(inst.ordinal(base))
            elif self.spec.natural and base in self.spec.left_on and side == "right":
                # merged column: the right side carries it too
                pos = self.spec.left_on.index(base)
                ords.append(inst.ordinal(self.spec.right_on[pos]))
        seen = set()
        out = []
        for r in rows:
            key = tuple(inst.columns[o][r] for o in ords)
            if key not in seen:
                seen.add(key)
                out.append(r)
        return out

    def _accessor(self, name: str):
        side, base = self.owner[name]
        if side == "left":
            ordinal = self.left.ordinal(base)
            column, decode = self.left.columns[ordinal], self.left
            merged_pos = (
                self.spec.left_on.index(base)
                if self.spec.natural and base in self.spec.left_on
                else None
            )
            if merged_pos is not None:
                r_ord = self.right.ordinal(self.spec.right_on[merged_pos])

                def cell(lrow, rrow):
                    if lrow is not None:
                        return decode.decode(ordinal, column[lrow])
                    if rrow is not None:
                        return self.right.decode(r_ord, self.right.columns[r_ord][rrow])
                    return None

                return cell

            def cell(lrow, rrow):
                return decode.decode(ordinal, column[lrow]) if lrow is not None else None

            return cell
        ordinal = self.right.ordinal(base)
        column = self.right.columns[ordinal]

        def cell(lrow, rrow):
            return self.right.decode(ordinal, column[rrow]) if rrow is not None else None

        return cell
