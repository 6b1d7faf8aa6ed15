"""Join operators over instances, partial joins, and join coverage.

Join keys are compared by decoded raw value, never by code, since codes are
per-instance. Null join values match null join values, consistent with the
single-null-constant semantics. Outer operators pad the missing side with
nulls; for natural joins the merged column takes whichever side is present.

Result attributes are qualified as "table.attr" using the instance names, and
natural-join merged columns keep the left qualifier. Semi-joins return the
kept side unqualified: they are a filtered, deduplicated view of one input.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import JoinSpecError
from .relation import AttrRef, Instance, project, take_rows


class JoinKind(enum.Enum):
    INNER = "inner"
    LEFT_SEMI = "lsemi"
    RIGHT_SEMI = "rsemi"
    LEFT_OUTER = "louter"
    RIGHT_OUTER = "router"
    FULL_OUTER = "fouter"


PADS_RIGHT_ATTRS = {JoinKind.LEFT_OUTER, JoinKind.FULL_OUTER}
PADS_LEFT_ATTRS = {JoinKind.RIGHT_OUTER, JoinKind.FULL_OUTER}
SEMI_KINDS = {JoinKind.LEFT_SEMI, JoinKind.RIGHT_SEMI}


@dataclass(frozen=True)
class JoinSpec:
    """Operator plus positionally paired join attribute lists."""

    kind: JoinKind
    left_on: tuple[str, ...]
    right_on: tuple[str, ...]
    natural: bool = False

    def __post_init__(self):
        if len(self.left_on) != len(self.right_on):
            raise JoinSpecError(
                f"join attribute lists differ in length: "
                f"{list(self.left_on)} vs {list(self.right_on)}"
            )
        if not self.left_on:
            raise JoinSpecError("at least one join attribute pair is required")
        if self.natural and self.left_on != self.right_on:
            raise JoinSpecError("natural join requires identical attribute names")

    @classmethod
    def equi(
        cls,
        left_on: Sequence[str],
        right_on: Sequence[str],
        kind: JoinKind = JoinKind.INNER,
    ) -> "JoinSpec":
        return cls(kind, tuple(left_on), tuple(right_on))

    @classmethod
    def natural_join(
        cls, left: Instance, right: Instance, kind: JoinKind = JoinKind.INNER
    ) -> "JoinSpec":
        common = tuple(n for n in left.attr_names if n in right.attr_names)
        if not common:
            raise JoinSpecError(
                "no common attribute names; use an explicit equi-join instead"
            )
        return cls(kind, common, common, natural=True)

    def validate(self, left: Instance, right: Instance) -> None:
        for a in self.left_on:
            left.ordinal(a)
        for a in self.right_on:
            right.ordinal(a)


def _qualify(instance: Instance, attr: str) -> str:
    return f"{instance.name}.{attr}" if instance.name else attr


def result_schema(left: Instance, right: Instance, spec: JoinSpec) -> list[str]:
    """Attribute names of join(left, right, spec), without computing it."""
    if spec.kind is JoinKind.LEFT_SEMI:
        return list(left.attr_names)
    if spec.kind is JoinKind.RIGHT_SEMI:
        return list(right.attr_names)
    names = [_qualify(left, a) for a in left.attr_names]
    dropped = set(spec.right_on) if spec.natural else set()
    names += [_qualify(right, a) for a in right.attr_names if a not in dropped]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise JoinSpecError(f"join result would duplicate attribute names: {dupes}")
    return names


def left_name_map(left: Instance, right: Instance, spec: JoinSpec) -> dict[str, str]:
    """Left-side attribute name -> its name in the join result."""
    if spec.kind in SEMI_KINDS:
        return {a: a for a in left.attr_names}
    return {a: _qualify(left, a) for a in left.attr_names}


def right_name_map(left: Instance, right: Instance, spec: JoinSpec) -> dict[str, str]:
    """Right-side attribute name -> its name in the join result.

    Under a natural join the right join columns are merged into the left
    ones, so they map to the left-qualified name.
    """
    if spec.kind in SEMI_KINDS:
        return {a: a for a in right.attr_names}
    mapping = {}
    merged = (
        dict(zip(spec.right_on, spec.left_on)) if spec.natural else {}
    )
    for a in right.attr_names:
        if a in merged:
            mapping[a] = _qualify(left, merged[a])
        else:
            mapping[a] = _qualify(right, a)
    return mapping


def _key_index(keys: list[tuple]) -> dict[tuple, list[int]]:
    index: dict[tuple, list[int]] = {}
    for i, k in enumerate(keys):
        index.setdefault(k, []).append(i)
    return index


def _semi(side: Instance, keys: list[tuple], partner_keys: set[tuple]) -> Instance:
    seen: set[tuple[int, ...]] = set()
    kept = []
    for r, k in enumerate(keys):
        if k not in partner_keys:
            continue
        content = tuple(col[r] for col in side.columns)
        if content not in seen:
            seen.add(content)
            kept.append(r)
    return take_rows(side, kept)


def join(left: Instance, right: Instance, spec: JoinSpec) -> Instance:
    """Compute one of the six join operators.

    Inner and outer results row order: left rows in order, each followed by
    its matches in right order; dangling left rows sit in place, dangling
    right rows are appended at the end.
    """
    spec.validate(left, right)
    lords = [left.ordinal(a) for a in spec.left_on]
    rords = [right.ordinal(a) for a in spec.right_on]
    lkeys = left.key_column(lords)
    rkeys = right.key_column(rords)

    if spec.kind is JoinKind.LEFT_SEMI:
        return _semi(left, lkeys, set(rkeys))
    if spec.kind is JoinKind.RIGHT_SEMI:
        return _semi(right, rkeys, set(lkeys))

    rindex = _key_index(rkeys)
    pairs: list[tuple[int | None, int | None]] = []
    matched_right: set[int] = set()
    for i, k in enumerate(lkeys):
        hits = rindex.get(k)
        if hits:
            for j in hits:
                pairs.append((i, j))
            if spec.kind in PADS_LEFT_ATTRS:
                matched_right.update(hits)
        elif spec.kind in PADS_RIGHT_ATTRS:
            pairs.append((i, None))
    if spec.kind in PADS_LEFT_ATTRS:
        for j in range(right.row_count):
            if j not in matched_right:
                pairs.append((None, j))

    names = result_schema(left, right, spec)
    nl = len(left.schema)
    right_keep = [
        o
        for o in range(len(right.schema))
        if not (spec.natural and right.schema[o].name in set(spec.right_on))
    ]
    lo_positions = list(zip(lords, rords))
    rows: list[list[str | None]] = []
    for i, j in pairs:
        if i is not None:
            lpart = list(left.raw_row(i))
        else:
            lpart = [None] * nl
            if spec.natural and j is not None:
                for lo, ro in lo_positions:
                    lpart[lo] = right.decode(ro, right.columns[ro][j])
        if j is not None:
            rpart = [right.decode(o, right.columns[o][j]) for o in right_keep]
        else:
            rpart = [None] * len(right_keep)
        rows.append(lpart + rpart)
    result_name = f"({left.name}*{right.name})" if (left.name or right.name) else ""
    return Instance.from_rows(names, rows, name=result_name)


def partial_join(
    left: Instance,
    right: Instance,
    spec: JoinSpec,
    keep_left: Iterable[AttrRef],
    keep_right: Iterable[AttrRef],
    distinct: bool = False,
) -> Instance:
    """Join after projecting each side to the kept attributes.

    Equals projecting the full join to the kept columns, computed without
    materializing the rest. Both keep sets must contain their side's join
    attributes. `distinct=True` additionally deduplicates the projected
    sides, which preserves dependency validity while materializing far
    fewer rows.
    """
    keep_left = {left.schema[o].name for o in left.ordinals(keep_left)}
    keep_right = {right.schema[o].name for o in right.ordinals(keep_right)}
    missing = (set(spec.left_on) - keep_left) | (set(spec.right_on) - keep_right)
    if missing:
        raise JoinSpecError(f"keep sets must include join attributes: {sorted(missing)}")
    pl = project(left, keep_left)
    pr = project(right, keep_right)
    if distinct:
        from .relation import distinct_rows

        pl = distinct_rows(pl)
        pr = distinct_rows(pr)
    return join(pl, pr, spec)


# -- value-level analysis (no join materialization) --------------------------


@dataclass(frozen=True)
class JoinProfile:
    """Value-level structure of a prospective join.

    Each side's groups map a decoded join-value tuple to the ascending ids
    of the rows carrying it; every row count is read off those groups.
    """

    left_groups: dict[tuple, list[int]]
    right_groups: dict[tuple, list[int]]
    shared: frozenset
    dangling_left: frozenset
    dangling_right: frozenset
    inner_rows: int

    def groups(self, side: str) -> dict[tuple, list[int]]:
        return self.left_groups if side == "left" else self.right_groups

    def count(self, side: str, values: Iterable[tuple]) -> int:
        """Rows of one side carrying any of `values`."""
        groups = self.groups(side)
        return sum(len(groups[v]) for v in values)

    def rows(self, side: str, values: Iterable[tuple]) -> list[int]:
        """Ascending ids of one side's rows carrying any of `values`."""
        groups = self.groups(side)
        return sorted(r for v in values for r in groups[v])

    def rows_for(self, kind: JoinKind) -> int:
        if kind is JoinKind.INNER:
            return self.inner_rows
        if kind is JoinKind.LEFT_OUTER:
            return self.inner_rows + self.count("left", self.dangling_left)
        if kind is JoinKind.RIGHT_OUTER:
            return self.inner_rows + self.count("right", self.dangling_right)
        if kind is JoinKind.FULL_OUTER:
            return (
                self.inner_rows
                + self.count("left", self.dangling_left)
                + self.count("right", self.dangling_right)
            )
        raise JoinSpecError(f"no closed-form row count for {kind}")


def join_profile(left: Instance, right: Instance, spec: JoinSpec) -> JoinProfile:
    lg = _key_index(left.key_column([left.ordinal(a) for a in spec.left_on]))
    rg = _key_index(right.key_column([right.ordinal(a) for a in spec.right_on]))
    shared = frozenset(lg) & frozenset(rg)
    return JoinProfile(
        left_groups=lg,
        right_groups=rg,
        shared=shared,
        dangling_left=frozenset(lg) - shared,
        dangling_right=frozenset(rg) - shared,
        inner_rows=sum(len(lg[v]) * len(rg[v]) for v in shared),
    )


def join_attr_directions(
    left: Instance, right: Instance, spec: JoinSpec, profile: JoinProfile | None = None
) -> tuple[bool, bool]:
    """Whether the left join columns determine the right ones on the join,
    and vice versa.

    On inner joins both directions trivially hold; outer padding can break
    either one. Computed from value pairs alone.
    """
    if profile is None:
        profile = join_profile(left, right, spec)
    null_key = (None,) * len(spec.left_on)
    pairs = [(v, v) for v in profile.shared]
    if spec.kind in PADS_RIGHT_ATTRS:
        pairs += [(v, null_key) for v in profile.dangling_left]
    if spec.kind in PADS_LEFT_ATTRS:
        pairs += [(null_key, w) for w in profile.dangling_right]

    def functional(items) -> bool:
        seen: dict = {}
        for a, b in items:
            if seen.setdefault(a, b) != b:
                return False
        return True

    return functional(pairs), functional((b, a) for a, b in pairs)


# -- coverage -----------------------------------------------------------------


@dataclass(frozen=True)
class CoverageReport:
    cov_left: Fraction
    cov_right: Fraction
    coverage: Fraction
    per_value_left: tuple[dict, ...]
    per_value_right: tuple[dict, ...]

    def to_json(self) -> dict:
        def side(cov: Fraction, entries) -> dict:
            return {
                "value": float(cov),
                "exact": f"{cov.numerator}/{cov.denominator}",
                "per_value": list(entries),
            }

        return {
            "coverage": float(self.coverage),
            "exact": f"{self.coverage.numerator}/{self.coverage.denominator}",
            "left": side(self.cov_left, self.per_value_left),
            "right": side(self.cov_right, self.per_value_right),
        }


def _side_coverage(own: dict, other: dict) -> tuple[Fraction, tuple[dict, ...]]:
    if not own:
        return Fraction(0), ()
    entries = []
    # each value's ratio join_rows / side_rows is its partner count
    total = 0
    for value in sorted(own, key=lambda v: tuple(str(x) for x in v)):
        side_rows = len(own[value])
        partners = len(other.get(value, ()))
        total += partners
        entries.append(
            {
                "value": ["" if x is None else x for x in value],
                "side_rows": side_rows,
                "join_rows": side_rows * partners,
                "ratio": float(partners),
            }
        )
    return Fraction(total, len(own)), tuple(entries)


def profile_coverage(profile: JoinProfile) -> CoverageReport:
    """Coverage of the join a profile describes; see `coverage`."""
    lg, rg = profile.left_groups, profile.right_groups
    cov_left, per_left = _side_coverage(lg, rg)
    cov_right, per_right = _side_coverage(rg, lg)
    return CoverageReport(
        cov_left=cov_left,
        cov_right=cov_right,
        coverage=(cov_left + cov_right) / 2,
        per_value_left=per_left,
        per_value_right=per_right,
    )


def coverage(left: Instance, right: Instance, spec: JoinSpec) -> CoverageReport:
    """Mean over both sides of the average per-join-value survival ratio.

    Each side's score averages, over its distinct join values, the number
    of join rows carrying that value divided by the side's own rows with
    it. Inner-join semantics are used for every operator kind. An empty
    side scores zero.
    """
    spec.validate(left, right)
    return profile_coverage(join_profile(left, right, spec))
