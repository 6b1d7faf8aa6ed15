"""Differential property test: selective discovery against the oracle.

Seeded tiny random pairs cover what `make_fixture` never makes: composite
keys, natural joins, equi-joins on differently named keys, nulls in every
column (join keys included), empty sides and all six operators. A quarter
of the pairs hold no null at all, because natural outer padding breaks
dependencies even then. Each pair is
checked twice: the selective pipeline's output must be closure-equal to
the oracle's, and, on every non-semi pair, the streaming validator must
agree with the materialized join on every candidate dependency over the
join schema, each rejection keeping a counterexample that refutes it. The
sampling pipeline's output must imply the oracle's set on every pair,
under a selection tree drawn per pair (`n_b`, `n_v` and seed).
After each selective run, every counterexample the validator kept, and
every mining candidate it refuted with one, must be false on the
materialized join.

A second generator makes 300 wider pairs (1-3 key attributes, up to 5
more attributes and 30 rows a side, domains of 1-5 values, nulls in about
60% of the pairs) on which selective must be closure-equal to the oracle
and sampling must imply it. Stage 2 shrinks no inferred lhs, so these
pairs also check that mining alone finds every minimal lhs.

On every pair of both generators whose join has rows, the sampling
micro-join has rows too, under several random selection trees: sampling
mines nothing but the micro-join, so an empty one would lose every
dependency.
"""

import random
from itertools import combinations

from conftest import counterexamples_refuted_on_join
from joinfd.context import JoinContext
from joinfd.discovery import holds
from joinfd.fds import closure_equal, fd, implies
from joinfd.joins import SEMI_KINDS, JoinKind, JoinSpec, join
from joinfd.oracle import oracle_join_fds
from joinfd.pipeline import run_pipeline
from joinfd.relation import Instance
from joinfd.sample import SampleConfig, selective_sampling

PAIRS = 600
VALUES = ("x", "y", "z")
# the wider pairs: at most this many key attributes, rows and other
# attributes a side, and values in a domain
WIDE = {
    "max_keys": 3, "max_rows": 30, "max_others": 5, "values": ("v", "w", "x", "y", "z")
}
WIDE_PAIRS = 300


def _side(
    rng: random.Random, name: str, keys: list[str], prefix: str, nulls: list[None],
    max_rows: int, max_others: int, values: tuple[str, ...],
) -> Instance:
    rows = rng.randint(0, max_rows)
    attrs = keys + [f"{prefix}{i}" for i in range(rng.randint(0, max_others))]
    columns = []
    for _ in attrs:
        domain = list(values[: rng.randint(1, len(values))]) + nulls
        columns.append([rng.choice(domain) for _ in range(rows)])
    return Instance.from_rows(attrs, list(zip(*columns)), name=name)


def _pair(
    rng: random.Random, index: int, max_keys: int = 2, null_share: float = 0.75,
    max_rows: int = 8, max_others: int = 2, values: tuple[str, ...] = VALUES,
) -> tuple[Instance, Instance, JoinSpec]:
    keys = [f"k{i}" for i in range(rng.randint(1, max_keys))]
    natural = rng.random() < 0.5
    # about half of the equi-joins match keys named apart
    right_keys = keys
    if not natural and rng.random() < 0.5:
        right_keys = [f"j{i}" for i in range(len(keys))]
    nulls = [None] if rng.random() < null_share else []
    left = _side(rng, "L", keys, "a", nulls, max_rows, max_others, values)
    right = _side(rng, "R", right_keys, "b", nulls, max_rows, max_others, values)
    kind = list(JoinKind)[index % len(JoinKind)]
    spec = JoinSpec(kind, tuple(keys), tuple(right_keys), natural=natural)
    return left, right, spec


def _pairs():
    rng = random.Random(20261018)
    return [_pair(rng, i) for i in range(PAIRS)]


def test_selective_matches_oracle_on_tiny_random_pairs():
    wrong = []
    for i, (left, right, spec) in enumerate(_pairs()):
        rep = run_pipeline(left, right, spec, strategy="selective")
        if not closure_equal(rep.fds, oracle_join_fds(left, right, spec)):
            wrong.append((i, spec))
    assert not wrong


def test_sampling_implies_oracle_on_tiny_random_pairs():
    missed = []
    rng = random.Random(20261019)
    for i, (left, right, spec) in enumerate(_pairs()):
        cfg = SampleConfig(
            n_b=rng.randint(1, 3), n_v=rng.randint(0, 2), seed=rng.randrange(1 << 16)
        )
        rep = run_pipeline(left, right, spec, strategy="sampling", sample_cfg=cfg)
        truth = oracle_join_fds(left, right, spec)
        if not all(implies(rep.fds, d) for d in truth):
            missed.append((i, spec, cfg))
    assert not missed


def _wide_pairs():
    """The wider pairs, nulls in about 60% of them, each with a selection
    tree drawn for it."""
    rng = random.Random(20261020)
    out = []
    for index in range(WIDE_PAIRS):
        left, right, spec = _pair(rng, index, null_share=0.6, **WIDE)
        cfg = SampleConfig(
            n_b=rng.randint(1, 3), n_v=rng.randint(0, 2), seed=rng.randrange(1 << 16)
        )
        out.append((left, right, spec, cfg))
    return out


def test_selective_matches_and_sampling_implies_oracle_on_wider_random_pairs():
    wrong, missed = [], []
    for i, (left, right, spec, cfg) in enumerate(_wide_pairs()):
        truth = oracle_join_fds(left, right, spec)
        if not closure_equal(run_pipeline(left, right, spec).fds, truth):
            wrong.append((i, spec))
        rep = run_pipeline(left, right, spec, strategy="sampling", sample_cfg=cfg)
        if not all(implies(rep.fds, d) for d in truth):
            missed.append((i, spec, cfg))
    assert not wrong
    assert not missed


def test_streaming_validator_matches_materialized_join_on_tiny_random_pairs():
    checked = 0
    for left, right, spec in _pairs():
        if spec.kind in SEMI_KINDS:
            continue
        context = JoinContext(left, right, spec)
        joined = join(left, right, spec)
        names = list(joined.attr_names)
        before = checked
        for rhs in names:
            others = [n for n in names if n != rhs]
            for size in range(len(others) + 1):
                for combo in combinations(others, size):
                    cand = fd(combo, rhs)
                    valid = context.check_fd(cand)
                    assert valid == holds(joined, cand), (spec, cand)
                    mask = sum(context.join_bits[a] for a in combo)
                    assert context.refutes(mask, rhs) is not valid, (spec, cand)
                    checked += 1
        assert context.counters.candidates_validated == checked - before
    assert checked > 0


def test_counterexamples_are_false_on_tiny_random_pairs(recorded_contexts):
    agree_sets = refuted = 0
    for left, right, spec in _pairs():
        run_pipeline(left, right, spec, strategy="selective")
    for context in recorded_contexts:
        kept, hits = counterexamples_refuted_on_join(context)
        agree_sets += kept
        refuted += hits
    assert len(recorded_contexts) == PAIRS
    assert agree_sets > 0 and refuted > 0


def test_every_join_with_rows_samples_a_row():
    rng = random.Random(20261021)
    sampled = 0
    for left, right, spec in _pairs() + [pair[:3] for pair in _wide_pairs()]:
        if spec.kind in SEMI_KINDS:
            continue
        context = JoinContext(left, right, spec)
        if not context.result_rows():
            continue
        for _ in range(3):
            cfg = SampleConfig(
                n_b=rng.randint(1, 3),
                n_v=rng.randint(0, 2),
                seed=rng.randrange(1 << 16),
            )
            picked = selective_sampling(context, cfg)
            micro = join(left, right, spec, context.profile, picked)
            assert micro.row_count > 0, (spec, cfg)
            sampled += 1
    # 514 of the 900 pairs are neither semi-joins nor empty
    assert sampled == 3 * 514, sampled
