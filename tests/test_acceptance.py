"""Acceptance criteria, one test per criterion.

Each test prints a PASS line when its assertions went through (visible with
pytest -s or -rA). The seeded corpora are fixed, so runs are reproducible.
"""

import random
from fractions import Fraction

import pytest

from joinfd.discovery import discover_fds, holds
from joinfd.fds import fd, implies, minimal_cover, closure_equal
from joinfd.fixtures import FixtureProfile, make_fixture, planted_afd
from joinfd.joins import (
    JoinKind,
    JoinSpec,
    coverage,
    join,
    name_maps,
)
from joinfd.metrics import evaluate
from joinfd.oracle import oracle_join_fds
from joinfd.pipeline import run_pipeline
from joinfd.relation import loads_csv
from joinfd.sample import SampleConfig

OPS = list(JoinKind)


def _corpus(count=500):
    """The shared randomized corpus: 2-5 attributes, 5-30 rows, all six
    operators, dangling fraction cycling through {0, 0.2, 0.5}."""
    for seed in range(count):
        rng = random.Random(seed * 7919 + 13)
        profile = FixtureProfile(
            left_rows=rng.randint(5, 30),
            right_rows=rng.randint(5, 30),
            left_attrs=rng.randint(2, 5),
            right_attrs=rng.randint(2, 5),
            dangling_fraction=(0.0, 0.2, 0.5)[seed % 3],
            duplicate_fraction=rng.choice([0.0, 0.3]),
            op=OPS[seed % 6],
        )
        yield seed, make_fixture(profile, seed=seed)


def test_criterion_1_oracle_equivalence():
    """Selective output is closure-equal to the oracle on every corpus pair."""
    checked = 0
    for seed, (left, right, spec) in _corpus(500):
        report = run_pipeline(left, right, spec)
        truth = oracle_join_fds(left, right, spec)
        assert closure_equal(
            minimal_cover(report.fds), minimal_cover(truth)
        ), f"seed {seed} ({spec.kind.value}) diverges from the oracle"
        checked += 1
    assert checked == 500
    print(f"PASS criterion 1: oracle equivalence on {checked}/500 pairs")


def test_criterion_2_preservation():
    """Every minimal single-table dependency with a nonempty lhs holds on
    the join, for all six operators; constant-column rules are additionally
    checked whenever no outer padding can break them."""
    violations = 0
    checked = 0
    for seed, (left, right, spec) in _corpus(500):
        joined = join(left, right, spec)
        lmap, rmap = name_maps(left, right, spec)
        pads = spec.kind in (
            JoinKind.LEFT_OUTER, JoinKind.RIGHT_OUTER, JoinKind.FULL_OUTER
        )
        for inst, mapping, absent in (
            (left, lmap, spec.kind is JoinKind.RIGHT_SEMI),
            (right, rmap, spec.kind is JoinKind.LEFT_SEMI),
        ):
            if absent:
                continue
            exact = discover_fds(inst)
            for d in exact:
                if not d.lhs and pads:
                    continue  # null padding may break constants, by design
                checked += 1
                if not holds(joined, d.rename(mapping)):
                    violations += 1
    assert violations == 0
    print(f"PASS criterion 2: {checked} preserved dependencies, 0 violations")


def test_criterion_3_four_row_tables_exactly():
    """The worked 4-row pair: 6-row join, the exact single-table cover, no
    left-lhs inference for the mixed rhs, and the mixed rule mined."""
    left = loads_csv("X,A\n0,0\n1,0\n1,1\n2,2", name="L")
    right = loads_csv("Y,B,C\n0,0,0\n1,0,0\n1,1,1\n2,1,0", name="R")
    spec = JoinSpec.equi(["X"], ["Y"])

    joined = join(left, right, spec)
    assert joined.row_count == 6
    printed = [
        ("0", "0", "0", "0"),
        ("1", "0", "0", "0"),
        ("1", "0", "1", "1"),
        ("1", "1", "0", "0"),
        ("1", "1", "1", "1"),
        ("2", "2", "1", "0"),
    ]
    assert [tuple(r[i] for i in (0, 1, 3, 4)) for r in joined.raw_rows()] == printed

    exact = discover_fds(right)
    assert exact == {fd(["Y", "B"], "C"), fd(["Y", "C"], "B")}

    report = run_pipeline(left, right, spec)
    for d in report.fds:
        if d.rhs == "R.C":
            assert not (
                d.lhs <= {"L.X", "L.A"}
                and report.fds.origins[d] == "inferred"
            )
    assert report.fds.origins.get(fd(["L.A", "R.B"], "R.C")) == "mined"
    print("PASS criterion 3: 4-row fixture reproduced exactly")


def test_criterion_4_upstage_promotion():
    """Dangling violators promote the planted dependency; surviving
    violators block it. 100 seeded fixtures each way."""
    from joinfd.context import JoinContext
    from joinfd.upstage import upstage

    promoted = blocked = 0
    for seed in range(100):
        positive = seed % 2 == 0
        profile = FixtureProfile(
            left_rows=12,
            right_rows=12,
            left_attrs=3,
            right_attrs=3,
            dangling_fraction=0.25,
            planted_afd_degree=1,
            upstage_positive=positive,
        )
        left, right, spec = make_fixture(profile, seed=seed)
        planted = planted_afd(profile)
        mined, _ = upstage(JoinContext(left, right, spec))
        joined = join(left, right, spec)
        renamed = planted.rename(name_maps(left, right, spec)[0])
        if positive:
            assert implies(mined, planted) and not holds(
                left, planted
            ), f"seed {seed}: planted dependency not promoted"
            assert holds(joined, renamed), f"seed {seed}: oracle disagrees"
            promoted += 1
        else:
            assert not implies(mined, planted), f"seed {seed}: bad promotion"
            assert not holds(joined, renamed)
            blocked += 1
    assert promoted == blocked == 50
    print("PASS criterion 4: 50/50 promotions and 50/50 rejections")


def test_criterion_5_coverage_values():
    """Exact rational coverage on the three pinned cases."""
    left = loads_csv("k,a\n1,x\n2,y\n3,z", name="L")
    right = loads_csv("k,b\n1,p\n2,q\n3,r", name="R")
    assert coverage(left, right, JoinSpec.equi(["k"], ["k"])).coverage == Fraction(1)

    left2 = loads_csv("k,a\n1,x", name="L")
    right2 = loads_csv("k,b\n2,p", name="R")
    assert coverage(left2, right2, JoinSpec.equi(["k"], ["k"])).coverage == Fraction(0)

    pl = loads_csv("X,A\n0,0\n1,0\n1,1\n2,2", name="L")
    pr = loads_csv("Y,B,C\n0,0,0\n1,0,0\n1,1,1\n2,1,0", name="R")
    got = coverage(pl, pr, JoinSpec.equi(["X"], ["Y"]))
    assert got.cov_left == Fraction(4, 3)
    assert got.cov_right == Fraction(4, 3)
    print("PASS criterion 5: coverage 1, 0, and 4/3 per side, exact")


def test_criterion_6_sampling_guarantees():
    """Sampled output implies every true dependency on every seeded run;
    the degenerate full sample is closure-equal to the oracle."""
    implied_runs = degenerate_runs = 0
    for seed in range(100):
        rng = random.Random(seed * 31 + 5)
        profile = FixtureProfile(
            left_rows=rng.randint(8, 20),
            right_rows=rng.randint(8, 20),
            left_attrs=rng.randint(3, 4),
            right_attrs=rng.randint(3, 4),
            dangling_fraction=rng.choice([0.0, 0.2]),
            duplicate_fraction=rng.choice([0.0, 0.3]),
            op=OPS[seed % 6],
        )
        left, right, spec = make_fixture(profile, seed=seed)
        truth = oracle_join_fds(left, right, spec)

        strict = run_pipeline(
            left, right, spec,
            strategy="sampling",
            sample_cfg=SampleConfig(n_b=1, n_v=1, seed=seed),
        )
        pool = list(strict.fds)
        for d in truth:
            assert implies(pool, d), f"seed {seed}: {d} not implied"
        implied_runs += 1

        degenerate = run_pipeline(
            left, right, spec,
            strategy="sampling",
            sample_cfg=SampleConfig(n_b=10**6, n_v=0, seed=seed),
        )
        assert closure_equal(
            minimal_cover(degenerate.fds), minimal_cover(truth)
        ), f"seed {seed}: degenerate sample diverges"
        degenerate_runs += 1
    assert implied_runs == degenerate_runs == 100
    print("PASS criterion 6: implication 100/100, degenerate equality 100/100")


def test_criterion_7_frugality(recorded_contexts):
    """On low-coverage fixtures the selective strategy materializes no join
    rows at all, neither full, partial nor sampled, and the rows its
    validator reads (both sides' sub-instances) are fewer than the full
    join's in at least 54 of 60 runs, as measured. Where most join values
    match one row a side, the join has fewer rows than the two sides."""
    wins = runs = 0
    for seed in range(60):
        rng = random.Random(seed * 17 + 3)
        profile = FixtureProfile(
            left_rows=rng.randint(80, 140),
            right_rows=rng.randint(80, 140),
            left_attrs=rng.randint(3, 4),
            right_attrs=rng.randint(3, 4),
            dangling_fraction=rng.choice([0.5, 0.6]),
            duplicate_fraction=rng.choice([0.5, 0.6]),
            domain_low=2,
            domain_high=3,
            op=JoinKind.INNER,
        )
        left, right, spec = make_fixture(profile, seed=seed)
        counters = run_pipeline(left, right, spec).counters
        assert counters.full_join_rows == 0
        assert counters.partial_join_rows == 0
        assert counters.sample_join_rows == 0
        context = recorded_contexts[-1]
        read = sum(context.side_subinstance(s).row_count for s in ("left", "right"))
        runs += 1
        if read < join(left, right, spec).row_count:
            wins += 1
    assert runs == 60 and wins >= 54, f"only {wins}/{runs} runs read fewer rows"
    print(f"PASS criterion 7: the validator reads fewer rows in {wins}/{runs} (>=54)")


def test_criterion_8_precision_curve():
    """On a high-coverage family, the paper-style score (closure-aware
    recall of true dependencies) is non-decreasing in the sample-size ratio
    on average, and reaches 1.0 at ratio 1.0."""
    profile = FixtureProfile(
        left_rows=40,
        right_rows=60,
        left_attrs=4,
        right_attrs=4,
        dangling_fraction=0.0,
        duplicate_fraction=0.5,
        op=JoinKind.INNER,
    )
    points = []
    configs = [
        SampleConfig(n_b=1, n_v=2, seed=0),
        SampleConfig(n_b=1, n_v=1, seed=0),
        SampleConfig(n_b=1, n_v=0, seed=0),
        SampleConfig(n_b=2, n_v=0, seed=0),
        SampleConfig(n_b=10**6, n_v=0, seed=0),
    ]
    for cfg in configs:
        ratios, scores = [], []
        for seed in range(10):
            left, right, spec = make_fixture(profile, seed=seed)
            truth = oracle_join_fds(left, right, spec)
            report = run_pipeline(
                left, right, spec,
                strategy="sampling",
                sample_cfg=SampleConfig(n_b=cfg.n_b, n_v=cfg.n_v, seed=seed),
            )
            metrics = evaluate(report.fds, truth)
            ratios.append(report.sample_rows_ratio or 0.0)
            scores.append(metrics.recall)
        points.append((sum(ratios) / 10, sum(scores) / 10))
    points.sort(key=lambda p: p[0])
    for (r1, s1), (r2, s2) in zip(points, points[1:]):
        assert s2 >= s1 - 1e-9, f"score drops from {s1:.3f} to {s2:.3f} as ratio grows"
    assert points[-1][0] == pytest.approx(1.0)
    assert points[-1][1] == pytest.approx(1.0)
    curve = ", ".join(f"({r:.2f}, {s:.2f})" for r, s in points)
    print(f"PASS criterion 8: score curve non-decreasing: {curve}")
