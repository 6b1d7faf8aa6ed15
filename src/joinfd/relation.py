"""Immutable dictionary-encoded columnar tables.

An Instance stores one value code per cell. Codes are per-column. A loaded
instance (`from_rows` and the CSV readers) assigns them in first-occurrence
order, so loading the same data twice yields identical instances. Derived
instances (row selections, projections, padding and join results) reuse
their inputs' codes and dictionaries, so their dictionaries may hold words
no row uses; each word still has a single code. A single reserved code
(NULL_CODE) represents the null value; all nulls compare equal, which is
exactly the "nulls are one constant" semantics the rest of the package
relies on. Cell equality is code equality, nothing else -- no numeric
coercion, no trimming. An instance's schema is its tuple of distinct
attribute names; an attribute's ordinal is its position there.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CsvFormatError, SchemaError

NULL_CODE = -1


@dataclass(frozen=True)
class Instance:
    """An immutable relational instance with dictionary-encoded columns.

    attr_names[i] names attribute i, columns[i][r] is its code in row r,
    and dictionaries[i][c] is the raw string behind code c. NULL_CODE never
    appears in a dictionary.
    """

    name: str
    attr_names: tuple[str, ...]
    columns: tuple[tuple[int, ...], ...]
    dictionaries: tuple[tuple[str, ...], ...]
    row_count: int

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        attr_names: Sequence[str],
        rows: Iterable[Sequence[str | None]],
        name: str = "",
    ) -> "Instance":
        names = list(attr_names)
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate attribute names: {dupes}")
        k = len(names)
        cols: list[list[int]] = [[] for _ in range(k)]
        dicts: list[list[str]] = [[] for _ in range(k)]
        encoders: list[dict[str, int]] = [{} for _ in range(k)]
        n = 0
        for row in rows:
            if len(row) != k:
                raise SchemaError(
                    f"row {n} has {len(row)} values, schema has {k} attributes"
                )
            for i, value in enumerate(row):
                if value is None:
                    cols[i].append(NULL_CODE)
                    continue
                code = encoders[i].get(value)
                if code is None:
                    code = len(dicts[i])
                    encoders[i][value] = code
                    dicts[i].append(value)
                cols[i].append(code)
            n += 1
        return cls(
            name=name,
            attr_names=tuple(names),
            columns=tuple(tuple(c) for c in cols),
            dictionaries=tuple(tuple(d) for d in dicts),
            row_count=n,
        )

    # -- lookups -----------------------------------------------------------

    def ordinal(self, attr: str) -> int:
        try:
            return self.attr_names.index(attr)
        except ValueError:
            raise SchemaError(
                f"unknown attribute {attr!r} in instance {self.name!r}"
            ) from None

    def ordinals(self, attrs: Iterable[str]) -> tuple[int, ...]:
        """Resolve a set of attributes to ordinals, in schema order."""
        return tuple(sorted(self.ordinal(a) for a in attrs))

    def decode(self, ordinal: int, code: int) -> str | None:
        return None if code == NULL_CODE else self.dictionaries[ordinal][code]

    def raw_row(self, row: int) -> tuple[str | None, ...]:
        return tuple(
            self.decode(o, self.columns[o][row]) for o in range(len(self.attr_names))
        )

    def raw_rows(self) -> list[tuple[str | None, ...]]:
        return [self.raw_row(r) for r in range(self.row_count)]


def take_rows(instance: Instance, row_ids: Sequence[int]) -> Instance:
    """New instance keeping `row_ids` in the given order; codes are reused."""
    cols = tuple(tuple([col[r] for r in row_ids]) for col in instance.columns)
    return Instance(
        name=instance.name,
        attr_names=instance.attr_names,
        columns=cols,
        dictionaries=instance.dictionaries,
        row_count=len(row_ids),
    )


def project(instance: Instance, attrs: Iterable[str]) -> Instance:
    """Restrict to `attrs` (schema order), keeping every row.

    Duplicate rows are not removed. An empty attribute set yields a
    zero-column instance that still reports the original row count.
    """
    ords = instance.ordinals(attrs)
    return Instance(
        name=instance.name,
        attr_names=tuple(instance.attr_names[o] for o in ords),
        columns=tuple(instance.columns[o] for o in ords),
        dictionaries=tuple(instance.dictionaries[o] for o in ords),
        row_count=instance.row_count,
    )


def distinct_rows(instance: Instance) -> Instance:
    """Drop duplicate rows, keeping the first occurrence of each."""
    seen: set[tuple[int, ...]] = set()
    kept = []
    for r in range(instance.row_count):
        key = tuple(col[r] for col in instance.columns)
        if key not in seen:
            seen.add(key)
            kept.append(r)
    return take_rows(instance, kept)


def has_nulls(instance: Instance) -> bool:
    return any(NULL_CODE in col for col in instance.columns)


def append_padding(
    instance: Instance,
    ordinals: Sequence[int],
    values: Sequence[tuple[str | None, ...]],
) -> Instance:
    """Append one outer-join padding row per tuple of `values`.

    Row i carries the raw values of `values[i]` at `ordinals` and nulls
    everywhere else; with no ordinals and one empty tuple this is a single
    all-null row. Existing codes are kept: only the dictionaries of
    `ordinals` grow, by the values they lack.
    """
    dictionaries = list(instance.dictionaries)
    padding = [[NULL_CODE] * len(values) for _ in instance.columns]
    for position, o in enumerate(ordinals):
        words = list(dictionaries[o])
        codes = {w: c for c, w in enumerate(words)}
        for i, value in enumerate(values):
            raw = value[position]
            if raw is None:
                continue
            if raw not in codes:
                codes[raw] = len(words)
                words.append(raw)
            padding[o][i] = codes[raw]
        dictionaries[o] = tuple(words)
    return Instance(
        name=instance.name,
        attr_names=instance.attr_names,
        columns=tuple(col + tuple(pad) for col, pad in zip(instance.columns, padding)),
        dictionaries=tuple(dictionaries),
        row_count=instance.row_count + len(values),
    )


# -- CSV ingestion ----------------------------------------------------------


def _read_records(
    stream, delimiter: str, header: bool, null_tokens: Sequence[str], name: str
) -> Instance:
    reader = csv.reader(stream, delimiter=delimiter)
    nulls = set(null_tokens)
    names: list[str] | None = None
    rows: list[list[str | None]] = []
    arity: int | None = None
    for record in reader:
        if not record:
            continue  # blank line, usually a trailing newline
        if names is None and header:
            names = record
            arity = len(record)
            continue
        if arity is None:
            arity = len(record)
        if len(record) != arity:
            raise CsvFormatError(
                f"line {reader.line_num}: expected {arity} fields, got {len(record)}"
            )
        rows.append([None if field in nulls else field for field in record])
    if arity is None:
        raise CsvFormatError("empty file")
    if names is None:
        names = [f"A{i}" for i in range(arity)]
    return Instance.from_rows(names, rows, name=name)


def load_csv(
    path: str,
    delimiter: str = ",",
    header: bool = True,
    null_tokens: Sequence[str] = ("",),
    name: str | None = None,
) -> Instance:
    """Load an RFC-4180 CSV file into an Instance.

    Cells whose raw text equals one of `null_tokens` become nulls. Attribute
    names come from the header row, or are synthesized as A0..Ak-1.
    """
    if name is None:
        stem = path.rsplit("/", 1)[-1]
        name = stem[:-4] if stem.lower().endswith(".csv") else stem
    with open(path, newline="", encoding="utf-8") as fh:
        return _read_records(fh, delimiter, header, null_tokens, name)


def loads_csv(
    text: str,
    delimiter: str = ",",
    header: bool = True,
    null_tokens: Sequence[str] = ("",),
    name: str = "",
) -> Instance:
    """Like load_csv but from an in-memory string; handy in tests."""
    return _read_records(io.StringIO(text), delimiter, header, null_tokens, name)


def to_csv(instance: Instance, null_token: str = "") -> str:
    """Render back to CSV text; nulls become `null_token`."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(instance.attr_names)
    for row in instance.raw_rows():
        writer.writerow([null_token if v is None else v for v in row])
    return buf.getvalue()
