"""The tiny-corpus workload: many small random table pairs.

Each pair has 0-8 rows per side, 0-2 non-key attributes per side and a join
key of 1-2 attributes; every value domain includes the null, the natural flag
is drawn per pair and the six join operators take turns. These are the inputs
the fixture generator never makes (composite keys, natural joins, nulls,
semi-joins, empty sides), so this is where correctness defects show.

The shapes (row and attribute counts, key width, natural flag, domain of
each column, operator) come from a generator with a fixed seed, the same
for every pool, so that every seed's pool holds the same mix of cheap and
costly pairs; the benchmark seed draws the values.
"""

from __future__ import annotations

import random

from joinfd.joins import JoinKind, JoinSpec
from joinfd.relation import Instance

OPERATORS = tuple(JoinKind)
VALUES = ("x", "y", "z")
SHAPE_SEED = 0


def _column(shape: random.Random, values: random.Random, rows: int) -> list[str | None]:
    domain = list(VALUES[: shape.randint(1, len(VALUES))]) + [None]
    return [values.choice(domain) for _ in range(rows)]


def _side(
    shape: random.Random, values: random.Random, name: str, keys: list[str], prefix: str
) -> Instance:
    rows = shape.randint(0, 8)
    attrs = keys + [f"{prefix}{i}" for i in range(shape.randint(0, 2))]
    columns = [_column(shape, values, rows) for _ in attrs]
    return Instance.from_rows(attrs, list(zip(*columns)), name=name)


def tiny_pair(
    shape: random.Random, values: random.Random, index: int
) -> tuple[Instance, Instance, JoinSpec]:
    """One random pair; the operator cycles with `index` so all six appear."""
    keys = [f"k{i}" for i in range(shape.randint(1, 2))]
    natural = shape.random() < 0.5
    left = _side(shape, values, "L", keys, "a")
    right = _side(shape, values, "R", keys, "b")
    spec = JoinSpec(
        OPERATORS[index % len(OPERATORS)], tuple(keys), tuple(keys), natural=natural
    )
    return left, right, spec


def tiny_corpus(seed: int, count: int) -> list[tuple[Instance, Instance, JoinSpec]]:
    shape, values = random.Random(SHAPE_SEED), random.Random(seed)
    return [tiny_pair(shape, values, i) for i in range(count)]
