"""Join operators over instances, partial joins, and join coverage.

Join keys are compared by decoded raw value, never by code, since codes are
per-instance: each side's rows are grouped by their key code tuple, and each
distinct tuple is decoded once. Null join values match null join values,
consistent with the single-null-constant semantics. Outer operators pad the
missing side with nulls; for natural joins the merged column takes whichever
side is present. A join result is assembled from its inputs' code columns
and keeps their dictionaries; only a natural merged column's dictionary can
grow, by the right join values that pad it.

Result attributes are qualified as "table.attr" using the instance names, and
natural-join merged columns keep the left qualifier. Semi-joins return the
kept side unqualified: they are a filtered, deduplicated view of one input.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

from .errors import JoinSpecError
from .relation import (
    NULL_CODE,
    AttrRef,
    AttributeId,
    Instance,
    append_padding,
    project,
    take_rows,
)


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


def _value_groups(instance: Instance, attrs: Sequence[str]) -> dict[tuple, list[int]]:
    """Decoded join-value tuple over `attrs` -> ascending ids of its rows.

    Rows are grouped by their code tuple, and the distinct tuples are
    decoded a key column at a time; values come in order of their first row.
    """
    ords = [instance.ordinal(a) for a in attrs]
    cols = [instance.columns[o] for o in ords]
    # a single key column groups by its bare codes, saving a tuple per row
    single = len(cols) == 1
    by_codes: dict = {}
    for r, codes in enumerate(cols[0] if single else zip(*cols)):
        rows = by_codes.get(codes)
        if rows is None:
            by_codes[codes] = [r]
        else:
            rows.append(r)
    # NULL_CODE is -1, so it selects the None appended to each dictionary
    decoded = [
        map((instance.dictionaries[o] + (None,)).__getitem__, codes)
        for o, codes in zip(ords, [by_codes] if single else zip(*by_codes))
    ]
    return dict(zip(zip(*decoded), by_codes.values()))


def _semi(side: Instance, groups: dict, partner_groups: dict) -> Instance:
    """The rows of `side` with a partner, duplicates dropped, in row order."""
    rows = sorted(r for v, rs in groups.items() if v in partner_groups for r in rs)
    contents = list(zip(*side.columns))
    first: dict[tuple, int] = {}
    for r in rows:
        first.setdefault(contents[r], r)
    return take_rows(side, list(first.values()))


def join(
    left: Instance, right: Instance, spec: JoinSpec, profile: JoinProfile | None = None
) -> Instance:
    """Compute one of the six join operators.

    Inner and outer results row order: left rows in order, each followed by
    its matches in right order; dangling left rows sit in place, dangling
    right rows are appended at the end. Result columns keep their input's
    codes and dictionaries. A natural merged column is the left one, whose
    dictionary grows by the right join values it lacks on the padding rows
    of dangling right rows. A given `profile` of the same triple supplies
    both sides' join-value groups, which are otherwise computed here.
    """
    spec.validate(left, right)
    if profile is None:
        lgroups = _value_groups(left, spec.left_on)
        rgroups = _value_groups(right, spec.right_on)
    else:
        lgroups, rgroups = profile.left_groups, profile.right_groups
    if spec.kind is JoinKind.LEFT_SEMI:
        return _semi(left, lgroups, rgroups)
    if spec.kind is JoinKind.RIGHT_SEMI:
        return _semi(right, rgroups, lgroups)

    names = result_schema(left, right, spec)
    hits_of: list[list[int] | None] = [None] * left.row_count
    for v, rows in lgroups.items():
        hits = rgroups.get(v)
        if hits is not None:
            for i in rows:
                hits_of[i] = hits
    # the result's source rows per side; -1 selects a padding null
    lrows: list[int] = []
    rrows: list[int] = []
    pads_right = spec.kind in PADS_RIGHT_ATTRS
    for i, hits in enumerate(hits_of):
        if hits is not None:
            lrows.extend([i] * len(hits))
            rrows.extend(hits)
        elif pads_right:
            lrows.append(i)
            rrows.append(-1)
    lpart = take_rows(left, lrows)
    if spec.kind in PADS_LEFT_ATTRS:
        dangling = sorted(
            (j, v) for v, rows in rgroups.items() if v not in lgroups for j in rows
        )
        rrows.extend(j for j, _ in dangling)
        if spec.natural:
            on = [left.ordinal(a) for a in spec.left_on]
            lpart = append_padding(lpart, on, [v for _, v in dangling])
        else:
            lpart = append_padding(lpart, (), [()] * len(dangling))
    dropped = set(spec.right_on) if spec.natural else set()
    keep = [a.ordinal for a in right.schema if a.name not in dropped]
    rcols = tuple(
        tuple(map((right.columns[o] + (NULL_CODE,)).__getitem__, rrows)) for o in keep
    )
    result_name = f"({left.name}*{right.name})" if (left.name or right.name) else ""
    return Instance(
        name=result_name,
        schema=tuple(AttributeId(p, n) for p, n in enumerate(names)),
        columns=lpart.columns + rcols,
        dictionaries=lpart.dictionaries + tuple(right.dictionaries[o] for o in keep),
        row_count=len(rrows),
    )


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
        return sorted(chain.from_iterable(map(self.groups(side).__getitem__, values)))

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
    lg = _value_groups(left, spec.left_on)
    rg = _value_groups(right, spec.right_on)
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

    A join that pads neither side (inner and both semi-joins) pairs every
    join value only with itself, so both directions hold without a scan;
    outer padding can break either one. Computed from value pairs alone.
    """
    if spec.kind not in PADS_LEFT_ATTRS and spec.kind not in PADS_RIGHT_ATTRS:
        return True, True
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
    """Coverage of a join, per side and overall (see `coverage`).

    The three scores are exact fractions computed up front. The per-value
    entries of each side (its join values in order of their text, with row
    counts and ratios) are rendered from the profile only when read, which
    `to_json` does.
    """

    cov_left: Fraction
    cov_right: Fraction
    coverage: Fraction
    profile: JoinProfile

    @property
    def per_value_left(self) -> tuple[dict, ...]:
        return _per_value(self.profile.left_groups, self.profile.right_groups)

    @property
    def per_value_right(self) -> tuple[dict, ...]:
        return _per_value(self.profile.right_groups, self.profile.left_groups)

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


def _per_value(own: dict, other: dict) -> tuple[dict, ...]:
    # each value's ratio join_rows / side_rows is its partner count
    entries = []
    for value in sorted(own, key=lambda v: tuple(str(x) for x in v)):
        side_rows = len(own[value])
        partners = len(other.get(value, ()))
        entries.append(
            {
                "value": ["" if x is None else x for x in value],
                "side_rows": side_rows,
                "join_rows": side_rows * partners,
                "ratio": float(partners),
            }
        )
    return tuple(entries)


def profile_coverage(profile: JoinProfile) -> CoverageReport:
    """Coverage of the join a profile describes; see `coverage`.

    A side's score sums its values' partner counts, which is the other
    side's row count over the shared values, and divides by its number of
    distinct values.
    """

    def score(own: dict, other: str) -> Fraction:
        if not own:
            return Fraction(0)
        return Fraction(profile.count(other, profile.shared), len(own))

    cov_left = score(profile.left_groups, "right")
    cov_right = score(profile.right_groups, "left")
    return CoverageReport(
        cov_left=cov_left,
        cov_right=cov_right,
        coverage=(cov_left + cov_right) / 2,
        profile=profile,
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
