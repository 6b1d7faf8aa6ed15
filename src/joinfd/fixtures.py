"""Deterministic synthetic table pairs for tests and experiments.

A profile controls the shape: per-side rows and attribute counts, the
fraction of rows whose join value dangles, the fraction of matched rows that
repeat an earlier join value, and optionally a planted almost-dependency on
the left side whose violating rows either all dangle or all survive the join.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields

from .errors import InputError
from .fds import FunctionalDependency
from .joins import JoinKind, JoinSpec
from .relation import Instance

# accepted value types per annotation; bool is an int, so it is refused apart
_FIELD_TYPES = {
    "int": int,
    "float": (int, float),
    "bool": bool,
    "JoinKind": JoinKind,
    "int | None": (int, type(None)),
}


@dataclass(frozen=True)
class FixtureProfile:
    left_rows: int = 10
    right_rows: int = 10
    left_attrs: int = 3  # including the join attribute
    right_attrs: int = 3
    dangling_fraction: float = 0.0
    duplicate_fraction: float = 0.0
    planted_afd_degree: int = 0
    upstage_positive: bool = True
    op: JoinKind = JoinKind.INNER
    domain_low: int = 2
    domain_high: int | None = None  # default: about half the row count

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, _FIELD_TYPES[f.type]) or (
                isinstance(value, bool) and f.type != "bool"
            ):
                raise InputError(f"fixture field {f.name} must be {f.type}, got {value!r}")
        if min(self.left_rows, self.right_rows) < 1:
            raise InputError("fixture needs at least one row per side")
        if min(self.left_attrs, self.right_attrs) < 1:
            raise InputError("fixture needs at least the join attribute per side")
        if self.domain_low < 1:
            raise InputError("fixture domain_low must be at least 1")
        if not 0 <= self.dangling_fraction < 1:
            raise InputError("dangling fraction must be in [0, 1)")
        if not 0 <= self.duplicate_fraction < 1:
            raise InputError("duplicate fraction must be in [0, 1)")
        if self.planted_afd_degree:
            if self.left_attrs < 3:
                raise InputError(
                    "a planted dependency needs two non-join attributes on the left"
                )
            dangling = round(self.left_rows * self.dangling_fraction)
            if self.upstage_positive and dangling < self.planted_afd_degree:
                raise InputError(
                    "not enough dangling left rows to hide every planted violator"
                )
            matched = self.left_rows - round(self.left_rows * self.dangling_fraction)
            if not self.upstage_positive and matched < self.planted_afd_degree:
                raise InputError(
                    "not enough matched left rows to expose every planted violator"
                )


def make_fixture(
    profile: FixtureProfile, seed: int = 0
) -> tuple[Instance, Instance, JoinSpec]:
    """Generate a (left, right, spec) triple; identical seeds, identical data.

    Join columns are named "k" on both sides (joined as an equi-join). With
    zero dangling and duplicate fractions and equal row counts the join is a
    bijection, so coverage is exactly 1.
    """
    profile.validate()
    rng = random.Random(seed)
    n_l, n_r = profile.left_rows, profile.right_rows
    dang_l = round(n_l * profile.dangling_fraction)
    dang_r = round(n_r * profile.dangling_fraction)
    match_l, match_r = n_l - dang_l, n_r - dang_r
    dup_l = round(match_l * profile.duplicate_fraction)
    dup_r = round(match_r * profile.duplicate_fraction)
    n_shared = max(1, min(match_l - dup_l, match_r - dup_r))
    shared = [f"s{i}" for i in range(n_shared)]

    def join_column(matched: int, dangling: int, prefix: str) -> list[str]:
        col = list(shared[:matched])
        while len(col) < matched:
            col.append(rng.choice(shared))
        col += [f"{prefix}{i}" for i in range(dangling)]
        rng.shuffle(col)
        return col

    left_k = join_column(match_l, dang_l, "dl")
    right_k = join_column(match_r, dang_r, "dr")

    def data_columns(rows: int, count: int) -> list[list[str]]:
        cols = []
        high = profile.domain_high or max(profile.domain_low, rows // 2)
        for _ in range(count):
            size = rng.randint(profile.domain_low, max(profile.domain_low, high))
            cols.append([f"v{rng.randrange(size)}" for _ in range(rows)])
        return cols

    left_data = data_columns(n_l, profile.left_attrs - 1)
    right_data = data_columns(n_r, profile.right_attrs - 1)

    if profile.planted_afd_degree:
        _plant_afd(profile, rng, left_k, left_data)

    left = Instance.from_rows(
        ["k"] + [f"a{i}" for i in range(len(left_data))],
        list(zip(left_k, *left_data)) if left_data else [(v,) for v in left_k],
        name="L",
    )
    right = Instance.from_rows(
        ["k"] + [f"b{i}" for i in range(len(right_data))],
        list(zip(right_k, *right_data)) if right_data else [(v,) for v in right_k],
        name="R",
    )
    return left, right, JoinSpec.equi(["k"], ["k"], kind=profile.op)


def _plant_afd(profile, rng, left_k, left_data) -> None:
    """Make a1 a function of a0 except for `degree` violating rows.

    Each violator shares its a0 value with two consistent rows, so its
    class has a unique majority and the minimum repair always removes the
    violator itself. Violators sit on dangling or matched join values
    depending on the profile polarity.
    """
    n = len(left_k)
    distinct = sorted(set(left_data[0]))
    mapping = {v: f"f{i}" for i, v in enumerate(distinct)}
    left_data[1] = [mapping[left_data[0][r]] for r in range(n)]
    eligible = [
        r
        for r in range(n)
        if left_k[r].startswith("dl") == profile.upstage_positive
    ]
    rng.shuffle(eligible)
    violators = eligible[: profile.planted_afd_degree]
    if len(violators) < profile.planted_afd_degree:
        raise InputError("profile cannot place the requested violator count")
    partners = [r for r in range(n) if r not in set(violators)]
    if len(partners) < 2 * len(violators):
        raise InputError("not enough consistent rows to anchor every violator")
    for i, r in enumerate(violators):
        first, second = partners[2 * i], partners[2 * i + 1]
        left_data[0][second] = left_data[0][first]
        left_data[1][second] = mapping[left_data[0][first]]
        left_data[0][r] = left_data[0][first]
        left_data[1][r] = f"broken{i}"


def planted_afd(profile: FixtureProfile) -> FunctionalDependency:
    """The dependency a0 -> a1 that make_fixture's planted violators break."""
    if not profile.planted_afd_degree:
        raise InputError("profile plants no near-dependency")
    return FunctionalDependency(frozenset(["a0"]), "a1")
