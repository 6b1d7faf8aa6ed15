"""Join operators over instances, partial joins, and join coverage.

Join keys are compared by raw value. Codes are per instance, so the join
profile (`join_profile`) first recodes the right key columns into the left
ones' code space, one dictionary entry at a time, then numbers the join
values of both sides together and gives every input row one integer group
id; only the distinct keys are decoded, once. The join, the coverage scores
and every pipeline stage read those ids and the per-id row counts instead
of hashing join values again. Null join values match null join values,
consistent with the single-null-constant semantics. Outer operators pad the
missing side with nulls (`pad_rows`); for natural joins the merged column
takes whichever side is present. A join result is assembled from its inputs'
code columns and keeps their dictionaries; only a natural merged column's
dictionary can grow, by the right join values that pad it.

Result attributes are qualified as "table.attr" using the instance names, and
natural-join merged columns keep the left qualifier. Semi-joins return the
kept side unqualified: they are a filtered, deduplicated view of one input.
`name_maps` names every column this way in one pass, and refuses a join
whose result would hold one name twice; `result_schema` reads it off.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import filterfalse
from operator import mul
from typing import Iterable, Sequence

from .errors import JoinSpecError
from .relation import NULL_CODE, Instance, append_padding, project, take_rows


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


def name_maps(
    left: Instance, right: Instance, spec: JoinSpec
) -> tuple[dict[str, str], dict[str, str]]:
    """Each side's attribute name -> its name in the join result.

    Semi-join names stay unqualified. Under a natural join the right join
    columns are merged into the left ones, so they map to the left names.
    Raises JoinSpecError when two result columns would share a name.
    """
    if spec.kind in SEMI_KINDS:
        return {a: a for a in left.attr_names}, {a: a for a in right.attr_names}
    lmap = {a: _qualify(left, a) for a in left.attr_names}
    merged = set(spec.right_on) if spec.natural else set()
    rmap = {a: lmap[a] if a in merged else _qualify(right, a) for a in right.attr_names}
    names = [*lmap.values(), *(rmap[a] for a in right.attr_names if a not in merged)]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise JoinSpecError(f"join result would duplicate attribute names: {dupes}")
    return lmap, rmap


def result_schema(left: Instance, right: Instance, spec: JoinSpec) -> list[str]:
    """Attribute names of join(left, right, spec), without computing it."""
    lmap, rmap = name_maps(left, right, spec)
    if spec.kind is JoinKind.LEFT_SEMI:
        return list(lmap.values())
    if spec.kind is JoinKind.RIGHT_SEMI:
        return list(rmap.values())
    # a merged natural column maps to its left name, which is kept once
    return list(dict.fromkeys([*lmap.values(), *rmap.values()]))


def _semi(side: Instance, rows: Sequence[int]) -> Instance:
    """The given rows of `side`, those with a partner, duplicates dropped,
    in row order."""
    contents = list(zip(*side.columns))
    first: dict[tuple, int] = {}
    for r in rows:
        first.setdefault(contents[r], r)
    return take_rows(side, list(first.values()))


def pad_rows(
    instance: Instance,
    on: Sequence[str],
    spec: JoinSpec,
    profile: JoinProfile,
    ids: Sequence[int],
) -> Instance:
    """One side of the join, `instance`, with one outer-join padding row
    appended per group id in `ids`: the other side's dangling join values.

    A padding row is all null, except that under a natural join its join
    columns `on` carry the id's join value, decoded only then.
    """
    if not ids:
        return instance
    if not spec.natural:
        return append_padding(instance, (), [()] * len(ids))
    values = profile.values
    return append_padding(
        instance, [instance.ordinal(a) for a in on], [values[g] for g in ids]
    )


def join(
    left: Instance,
    right: Instance,
    spec: JoinSpec,
    profile: JoinProfile | None = None,
    shared: Iterable[int] | None = None,
) -> Instance:
    """Compute one of the six join operators.

    Inner and outer results row order: left rows in order, each followed by
    its matches in right order; dangling left rows sit in place, dangling
    right rows are appended at the end. Result columns keep their input's
    codes and dictionaries. A natural merged column is the left one, whose
    dictionary grows by the right join values it lacks on the padding rows
    of dangling right rows. A given `profile` of the same triple supplies
    both sides' group ids, which are otherwise worked out here. Only the
    rows of the shared ids in `shared` (every one by default) are paired;
    dangling rows follow the operator as ever.
    """
    spec.validate(left, right)
    if profile is None:
        profile = join_profile(left, right, spec)
    picked = profile.shared if shared is None else set(shared)
    if spec.kind is JoinKind.LEFT_SEMI:
        return _semi(left, [r for r, g in enumerate(profile.left_ids) if g in picked])
    if spec.kind is JoinKind.RIGHT_SEMI:
        return _semi(right, [r for r, g in enumerate(profile.right_ids) if g in picked])

    names = result_schema(left, right, spec)
    # per id, the right rows each left row carrying it pairs with: a picked
    # shared id's right rows in ascending order, and a dangling one's
    # padding null (-1) when the operator keeps the row, else none
    rids, n_shared = profile.right_ids, profile.n_shared
    hits: list[Sequence[int]] = [[] for _ in range(n_shared)]
    for j, g in enumerate(rids):
        if g < n_shared:
            hits[g].append(j)
    if shared is not None:
        hits = [h if g in picked else () for g, h in enumerate(hits)]
    pad = (-1,) if spec.kind in PADS_RIGHT_ATTRS else ()
    hits += [pad] * (profile.n_left - n_shared)
    # the result's source rows per side
    lrows: list[int] = []
    rrows: list[int] = []
    for i, partners in enumerate(map(hits.__getitem__, profile.left_ids)):
        if partners:
            lrows.extend([i] * len(partners))
            rrows.extend(partners)
    lpart = take_rows(left, lrows)
    if spec.kind in PADS_LEFT_ATTRS:
        # the dangling right rows, in row order
        n_left = profile.n_left
        dangling = [j for j, g in enumerate(rids) if g >= n_left]
        rrows += dangling
        pads = [rids[j] for j in dangling]
        lpart = pad_rows(lpart, spec.left_on, spec, profile, pads)
    dropped = set(spec.right_on) if spec.natural else set()
    keep = [o for o, a in enumerate(right.attr_names) if a not in dropped]
    rcols = tuple(
        tuple([col[r] for r in rrows])
        for col in (right.columns[o] + (NULL_CODE,) for o in keep)
    )
    result_name = f"({left.name}*{right.name})" if (left.name or right.name) else ""
    return Instance(
        name=result_name,
        attr_names=tuple(names),
        columns=lpart.columns + rcols,
        dictionaries=lpart.dictionaries + tuple(right.dictionaries[o] for o in keep),
        row_count=len(rrows),
    )


def partial_join(
    left: Instance,
    right: Instance,
    spec: JoinSpec,
    keep_left: Iterable[str],
    keep_right: Iterable[str],
    distinct: bool = False,
) -> Instance:
    """Join after projecting each side to the kept attributes.

    Equals projecting the full join to the kept columns, computed without
    materializing the rest. Both keep sets must contain their side's join
    attributes. `distinct=True` additionally deduplicates the projected
    sides, which preserves dependency validity while materializing far
    fewer rows.
    """
    keep_left, keep_right = set(keep_left), set(keep_right)
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
    """Value-level structure of a prospective join: one group id per row.

    Ids number the distinct join values of both sides together: the shared
    values first, in order of their first left row, then the left-dangling
    ones likewise, then the right-dangling ones in order of their first
    right row. `left_ids[r]` and `right_ids[r]` are the ids of each side's
    row r, `keys[g]` is the key of id g in the code space both sides share
    (see `_common_codes`), which `words` decodes, and `left_counts[g]` and
    `right_counts[g]` are each side's rows carrying it; every row count is
    read off those counts. `values[g]`, the decoded join value of id g, is
    decoded on first read: many runs never read it.
    """

    left_ids: Sequence[int]
    right_ids: Sequence[int]
    keys: Sequence
    words: Sequence[tuple]
    left_counts: Sequence[int]
    right_counts: Sequence[int]
    n_shared: int
    n_left: int
    inner_rows: int

    @cached_property
    def values(self) -> list[tuple]:
        columns = [self.keys] if len(self.words) == 1 else zip(*self.keys)
        decoded = [map(w.__getitem__, col) for w, col in zip(self.words, columns)]
        return list(zip(*decoded))

    @property
    def shared(self) -> range:
        return range(self.n_shared)

    @property
    def dangling_left(self) -> range:
        return range(self.n_shared, self.n_left)

    @property
    def dangling_right(self) -> range:
        return range(self.n_left, len(self.keys))

    def ids(self, side: str) -> Sequence[int]:
        return self.left_ids if side == "left" else self.right_ids

    def counts(self, side: str) -> Sequence[int]:
        return self.left_counts if side == "left" else self.right_counts

    def count(self, side: str, ids: range) -> int:
        """Rows of one side carrying an id of the range `ids`."""
        return sum(self.counts(side)[ids.start : ids.stop])

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


def _common_codes(
    left: Instance, right: Instance, spec: JoinSpec
) -> tuple[Sequence, Sequence, list[tuple]]:
    """Each row's join key on both sides in one code space, and per key
    attribute the words that decode it.

    Left codes stand. A right word takes its left code, or a code past the
    left dictionary when the left lacks it, so two keys are equal iff their
    values are. A key is a bare code for a single join attribute, else a
    tuple of codes.
    """
    lcols, rcols, words = [], [], []
    for a, b in zip(spec.left_on, spec.right_on):
        lo, ro = left.ordinal(a), right.ordinal(b)
        ldict, rdict = left.dictionaries[lo], right.dictionaries[ro]
        code_of = dict(zip(ldict, range(len(ldict))))
        shift = len(ldict)
        # NULL_CODE is -1, so it selects the last entry: itself, and None
        recode = [*map(code_of.get, rdict, range(shift, shift + len(rdict))), NULL_CODE]
        lcols.append(left.columns[lo])
        rcols.append(list(map(recode.__getitem__, right.columns[ro])))
        words.append(ldict + rdict + (None,))
    if len(lcols) == 1:
        return lcols[0], rcols[0], words
    return list(zip(*lcols)), list(zip(*rcols)), words


def _counts(ids: Sequence[int], size: int) -> list[int]:
    """How many of `ids` are each of 0..size-1."""
    counts = [0] * size
    for g in ids:
        counts[g] += 1
    return counts


def join_profile(left: Instance, right: Instance, spec: JoinSpec) -> JoinProfile:
    """Number both sides' join values and label every row with its id.

    Both sides' keys are put in one code space, so they meet on integer
    codes; the profile decodes only the distinct keys, once, when first
    asked for them.
    """
    lkeys, rkeys, words = _common_codes(left, right, spec)
    ldistinct, rdistinct = dict.fromkeys(lkeys), dict.fromkeys(rkeys)
    keys = list(filter(rdistinct.__contains__, ldistinct))
    n_shared = len(keys)
    keys += filterfalse(rdistinct.__contains__, ldistinct)
    n_left = len(keys)
    keys += filterfalse(ldistinct.__contains__, rdistinct)
    id_of = dict(zip(keys, range(len(keys))))
    left_ids = list(map(id_of.__getitem__, lkeys))
    right_ids = list(map(id_of.__getitem__, rkeys))
    left_counts = _counts(left_ids, len(keys))
    right_counts = _counts(right_ids, len(keys))
    return JoinProfile(
        left_ids=left_ids,
        right_ids=right_ids,
        keys=keys,
        words=words,
        left_counts=left_counts,
        right_counts=right_counts,
        n_shared=n_shared,
        n_left=n_left,
        inner_rows=sum(map(mul, left_counts[:n_shared], right_counts)),
    )


def join_attr_directions(spec: JoinSpec, profile: JoinProfile) -> tuple[bool, bool]:
    """Whether the left join columns determine the right ones on the join,
    and vice versa.

    A join that pads neither side (inner and both semi-joins) pairs every
    join value only with itself, so both directions hold without a scan;
    outer padding can break either one. Computed from the value pairs of
    `profile`, the join's.
    """
    if spec.kind not in PADS_LEFT_ATTRS and spec.kind not in PADS_RIGHT_ATTRS:
        return True, True
    null_key = (None,) * len(spec.left_on)
    values = profile.values
    pairs = [(v, v) for v in values[: profile.n_shared]]
    if spec.kind in PADS_RIGHT_ATTRS:
        pairs += [(v, null_key) for v in values[profile.n_shared : profile.n_left]]
    if spec.kind in PADS_LEFT_ATTRS:
        pairs += [(null_key, w) for w in values[profile.n_left :]]

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
        return _per_value(self.profile, "left")

    @property
    def per_value_right(self) -> tuple[dict, ...]:
        return _per_value(self.profile, "right")

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


def _per_value(profile: JoinProfile, side: str) -> tuple[dict, ...]:
    # each value's ratio join_rows / side_rows is its partner count
    own = profile.counts(side)
    other = profile.counts("right" if side == "left" else "left")
    values = profile.values
    entries = []
    # the side's ids in order of their first row, then of their text
    for g in sorted(
        dict.fromkeys(profile.ids(side)), key=lambda g: tuple(str(x) for x in values[g])
    ):
        side_rows, partners = own[g], other[g]
        entries.append(
            {
                "value": ["" if x is None else x for x in values[g]],
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

    def score(distinct: int, other: str) -> Fraction:
        if not distinct:
            return Fraction(0)
        return Fraction(profile.count(other, profile.shared), distinct)

    cov_left = score(profile.n_left, "right")
    cov_right = score(len(profile.keys) - profile.n_left + profile.n_shared, "left")
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
