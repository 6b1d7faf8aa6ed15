import random

import pytest

from joinfd import pipeline
from joinfd.errors import GuardError, InputError, InternalInvariantError
from joinfd.fds import FdSet, fd, minimal_cover
from joinfd.fixtures import FixtureProfile, make_fixture, planted_afd
from joinfd.discovery import discover_fds
from joinfd.joins import JoinKind, JoinSpec, coverage, name_maps
from joinfd.metrics import evaluate
from joinfd.oracle import oracle_join_fds
from joinfd.pipeline import STRATEGIES, run_left_deep, run_pipeline
from joinfd.relation import loads_csv

from conftest import brute_force_fds, brute_force_violations, random_instance


def test_oracle_on_proof_tables_contains_the_mixed_rule(pair_with_join_only_fd):
    left, right, spec = pair_with_join_only_fd
    got = oracle_join_fds(left, right, spec)
    from joinfd.fds import implies

    assert implies(list(got), fd(["L.A", "R.B"], "R.C"))


def test_oracle_flags_empty_join_as_vacuous():
    left = loads_csv("k,a\n1,x", name="L")
    right = loads_csv("k,b\n2,p", name="R")
    spec = JoinSpec.equi(["k"], ["k"])
    assert len(oracle_join_fds(left, right, spec)) == 0
    rep = run_pipeline(left, right, spec)
    assert rep.vacuous
    assert len(rep.fds) == 0


def test_oracle_guard_refuses_large_joins(monkeypatch):
    monkeypatch.setenv("JOINFD_MAX_JOIN_ROWS", "100")
    left = loads_csv("k\n" + "\n".join("1" for _ in range(40)), name="L")
    right = loads_csv("k\n" + "\n".join("1" for _ in range(40)), name="R")
    with pytest.raises(GuardError, match="limit"):
        oracle_join_fds(left, right, JoinSpec.equi(["k"], ["k"]))


def test_oracle_matches_brute_force_on_random_pairs():
    rng = random.Random(91)
    from joinfd.joins import join

    for seed in range(15):
        prof = FixtureProfile(
            left_rows=rng.randint(4, 10), right_rows=rng.randint(4, 10),
            left_attrs=3, right_attrs=3, dangling_fraction=0.2,
        )
        left, right, spec = make_fixture(prof, seed=seed)
        got = oracle_join_fds(left, right, spec)
        joined = join(left, right, spec)
        if joined.row_count == 0:
            continue
        assert got == minimal_cover(brute_force_fds(joined))


def test_classification_partitions_the_output():
    rng = random.Random(92)
    for seed in range(20):
        prof = FixtureProfile(
            left_rows=rng.randint(6, 16), right_rows=rng.randint(6, 16),
            left_attrs=3, right_attrs=3,
            dangling_fraction=rng.choice([0.0, 0.3]),
            op=list(JoinKind)[seed % 6],
        )
        left, right, spec = make_fixture(prof, seed=seed)
        rep = run_pipeline(left, right, spec)
        counts = rep.origin_counts()
        assert "unclassified" not in counts
        assert sum(counts.values()) == len(rep.fds)


def test_preserved_tags_take_priority(pair_with_join_only_fd):
    left, right, spec = pair_with_join_only_fd
    rep = run_pipeline(left, right, spec)
    assert rep.fds.origins[fd(["R.B", "R.Y"], "R.C")] == "preserved-right"
    assert rep.fds.origins[fd(["L.A", "R.B"], "R.C")] == "mined"


def test_oracle_tags_each_minimal_input_dependency_as_preserved():
    # the oracle tests a final member on the input it maps to; that must tag
    # exactly the members of the input's mined set, the left side first
    rng = random.Random(94)
    seen = set()
    for seed in range(60):
        if seed % 3:
            prof = FixtureProfile(
                left_rows=rng.randint(4, 12), right_rows=rng.randint(4, 12),
                dangling_fraction=rng.choice([0.0, 0.3]), op=list(JoinKind)[seed % 6],
            )
            left, right, spec = make_fixture(prof, seed=seed)
        else:
            # shared names c0, c1: natural joins merge them into one column
            left, right = (
                random_instance(rng, n, rng.randint(1, 8), name, null_share=0.2)
                for n, name in ((3, "L"), (2, "R"))
            )
            spec = JoinSpec.natural_join(left, right, list(JoinKind)[seed % 6])
        rep = run_pipeline(left, right, spec, strategy="oracle")
        # a semi-join's dropped side has no attributes in the result
        sigma_l, sigma_r = (
            FdSet() if spec.kind is dropped else discover_fds(inst)
            for inst, dropped in ((left, JoinKind.RIGHT_SEMI), (right, JoinKind.LEFT_SEMI))
        )
        lmap, rmap = name_maps(left, right, spec)
        preserved_l = {x.rename(lmap) for x in sigma_l}
        preserved_r = {x.rename(rmap) for x in sigma_r}
        for d in rep.fds:
            if d in preserved_l:
                expected = "preserved-left"
            elif d in preserved_r:
                expected = "preserved-right"
            else:
                expected = "mined"
            assert rep.fds.origins[d] == expected, (seed, d)
            seen.add(expected)
    assert seen == {"preserved-left", "preserved-right", "mined"}


@pytest.mark.parametrize("kind", [JoinKind.LEFT_SEMI, JoinKind.RIGHT_SEMI])
@pytest.mark.parametrize("natural", [False, True])
def test_semi_join_origins_ignore_the_dropped_side(kind, natural):
    # k0 is constant on the kept side's surviving rows but not on its input,
    # so {} -> k0 is upstaged; the dropped side, where k0 is constant too,
    # has no attribute in the result and preserves nothing
    kept = loads_csv("k0,b\n1,p\n2,q\n1,r", name="K")
    dropped = loads_csv("k0,a\n1,x\n1,y", name="D")
    left, right = (kept, dropped) if kind is JoinKind.LEFT_SEMI else (dropped, kept)
    if natural:
        spec = JoinSpec.natural_join(left, right, kind)
    else:
        spec = JoinSpec.equi(["k0"], ["k0"], kind)
    side = "left" if kind is JoinKind.LEFT_SEMI else "right"
    for strategy in ("selective", "sampling"):
        rep = run_pipeline(left, right, spec, strategy=strategy)
        assert rep.fds.origins[fd([], "k0")] == f"upstaged-{side}", strategy
    rep = run_pipeline(left, right, spec, strategy="oracle")
    assert rep.fds.origins[fd([], "k0")] == "mined"


def test_untagged_stage_output_is_an_internal_error(
    pair_with_join_only_fd, monkeypatch
):
    # a stage whose output carries no tag leaves a final member without origin
    left, right, spec = pair_with_join_only_fd
    untagged = FdSet([fd(["L.A"], "unreachable")])
    monkeypatch.setattr(pipeline, "discover_selective", lambda *args: untagged)
    with pytest.raises(InternalInvariantError, match="no producing stage"):
        run_pipeline(left, right, spec)


def test_evaluate_identity_is_perfect():
    s = FdSet([fd(["A"], "B"), fd(["B"], "C")])
    m = evaluate(s, s)
    assert (m.precision, m.recall) == (1.0, 1.0)


def test_evaluate_empty_discovered_convention():
    truth = FdSet([fd(["A"], "B")])
    m = evaluate(FdSet(), truth)
    assert m.precision == 1.0
    assert m.recall == 0.0
    assert "empty-discovered" in m.flags


def test_evaluate_self_is_always_perfect():
    rng = random.Random(94)
    from joinfd.fds import FunctionalDependency

    for _ in range(25):
        fds = FdSet()
        for _ in range(rng.randint(0, 5)):
            lhs = frozenset(a for a in "ABCD" if rng.random() < 0.4)
            free = [a for a in "ABCD" if a not in lhs]
            fds.add(FunctionalDependency(lhs, rng.choice(free)))
        m = evaluate(fds, fds)
        assert (m.precision, m.recall) == (1.0, 1.0)


def test_evaluate_closure_aware_matching():
    truth = FdSet([fd(["A"], "B"), fd(["B"], "C")])
    discovered = FdSet([fd(["A"], "B"), fd(["B"], "C"), fd(["A"], "C")])
    m = evaluate(discovered, truth)
    assert m.precision == 1.0  # A->C is implied by the truth
    assert m.recall == 1.0


def test_selective_strategy_matches_oracle_metrics():
    rng = random.Random(93)
    for seed in range(10):
        prof = FixtureProfile(
            left_rows=rng.randint(6, 14), right_rows=rng.randint(6, 14),
            left_attrs=3, right_attrs=3, dangling_fraction=0.3,
        )
        left, right, spec = make_fixture(prof, seed=seed)
        rep = run_pipeline(left, right, spec)
        m = evaluate(rep.fds, oracle_join_fds(left, right, spec))
        assert (m.precision, m.recall) == (1.0, 1.0)


def test_frugal_strategies_never_record_a_full_join():
    prof = FixtureProfile(left_rows=12, right_rows=12, left_attrs=3, right_attrs=3)
    left, right, spec = make_fixture(prof, seed=0)
    for strategy in ("selective", "sampling"):
        rep = run_pipeline(left, right, spec, strategy=strategy)
        assert rep.counters.full_join_rows == 0
    oracle_rep = run_pipeline(left, right, spec, strategy="oracle")
    assert oracle_rep.counters.full_join_rows > 0


def test_unknown_strategy_rejected():
    prof = FixtureProfile()
    left, right, spec = make_fixture(prof, seed=0)
    with pytest.raises(InputError, match="strategy"):
        run_pipeline(left, right, spec, strategy="psychic")


def test_report_json_shape(pair_with_join_only_fd):
    left, right, spec = pair_with_join_only_fd
    doc = run_pipeline(left, right, spec).to_json()
    assert doc["schema_version"] == 3
    assert doc["strategy"] == "selective"
    assert doc["operator"] == "inner"
    assert doc["fd_count"] == len(doc["fds"])
    assert doc["fds"] and not any("error" in d for d in doc["fds"])
    assert set(doc["counters"]) >= {"partial_join_rows", "full_join_rows"}
    assert "coverage" in doc and "timings" in doc


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_total_time_covers_every_stage_and_the_profile(strategy):
    prof = FixtureProfile(left_rows=12, right_rows=12, dangling_fraction=0.3)
    pairs = [make_fixture(prof, seed=4)]
    # a vacuous run: no join value is shared
    pairs.append((
        loads_csv("k,a\n1,x\n2,y", name="L"),
        loads_csv("k,b\n3,p\n4,q", name="R"),
        JoinSpec.equi(["k"], ["k"]),
    ))
    for kind in (JoinKind.LEFT_SEMI, JoinKind.FULL_OUTER):
        left, right, spec = make_fixture(FixtureProfile(op=kind), seed=5)
        pairs.append((left, right, spec))
    for left, right, spec in pairs:
        timings = run_pipeline(left, right, spec, strategy=strategy).timings
        stages = {k: v for k, v in timings.items() if k != "total"}
        assert "profile" in stages
        assert timings["total"] >= sum(stages.values()) - 1e-9, timings


def test_wide_pair_reports_the_mining_funnel():
    # many two-valued attributes: mining refutes candidates by recorded
    # counterexamples and prunes others the pool implies
    prof = FixtureProfile(
        left_rows=45, right_rows=45, left_attrs=6, right_attrs=4,
        dangling_fraction=0.2, duplicate_fraction=0.3, domain_low=2, domain_high=2,
    )
    left, right, spec = make_fixture(prof, seed=3)
    counters = run_pipeline(left, right, spec).to_json()["counters"]
    assert counters["candidates_refuted"] > 0
    assert counters["candidates_implied"] > 0
    assert counters["candidates_validated"] > 0


def test_fixture_is_deterministic():
    prof = FixtureProfile(left_rows=15, right_rows=13, dangling_fraction=0.2)
    a = make_fixture(prof, seed=7)
    b = make_fixture(prof, seed=7)
    assert a[0] == b[0] and a[1] == b[1]
    c = make_fixture(prof, seed=8)
    assert a[0] != c[0] or a[1] != c[1]


def test_clean_fixture_covers_exactly_one():
    prof = FixtureProfile(
        left_rows=10, right_rows=10, dangling_fraction=0.0, duplicate_fraction=0.0
    )
    left, right, spec = make_fixture(prof, seed=3)
    from fractions import Fraction

    assert coverage(left, right, spec).coverage == Fraction(1)


def test_planted_violators_have_requested_degree():
    for seed in range(10):
        prof = FixtureProfile(
            left_rows=12, right_rows=12, left_attrs=3, right_attrs=2,
            dangling_fraction=0.25, planted_afd_degree=1,
        )
        left, _, _ = make_fixture(prof, seed=seed)
        planted = planted_afd(prof)
        assert brute_force_violations(left, planted.lhs, planted.rhs) == 1


def test_contradictory_profile_rejected():
    with pytest.raises(InputError):
        FixtureProfile(
            left_rows=10, right_rows=10, left_attrs=3, right_attrs=3,
            dangling_fraction=0.0, planted_afd_degree=1, upstage_positive=True,
        ).validate()


def test_left_deep_chain_runs_three_tables():
    prof = FixtureProfile(left_rows=8, right_rows=8, left_attrs=2, right_attrs=2)
    a, b, spec_ab = make_fixture(prof, seed=1)
    c = loads_csv(
        "k2,z\n" + "\n".join(f"s{i},w{i % 2}" for i in range(6)), name="C"
    )
    spec_bc = JoinSpec.equi(["L.k"], ["k2"])
    rep = run_left_deep([a, b, c], [spec_ab, spec_bc])
    assert len(rep.fds) > 0
    from joinfd.fds import closure_equal
    from joinfd.joins import join

    oracle = oracle_join_fds(join(a, b, spec_ab), c, spec_bc)
    assert closure_equal(minimal_cover(rep.fds), oracle)


def test_left_deep_chain_counts_intermediates_as_full_joins():
    prof = FixtureProfile(left_rows=8, right_rows=8, left_attrs=2, right_attrs=2)
    a, b, spec_ab = make_fixture(prof, seed=1)
    c = loads_csv(
        "k2,z\n" + "\n".join(f"s{i},w{i % 2}" for i in range(6)), name="C"
    )
    spec_bc = JoinSpec.equi(["L.k"], ["k2"])
    from joinfd.joins import join

    intermediate = join(a, b, spec_ab)
    first = run_pipeline(a, b, spec_ab)
    last = run_pipeline(intermediate, c, spec_bc)
    rep = run_left_deep([a, b, c], [spec_ab, spec_bc])
    assert rep.counters.full_join_rows == intermediate.row_count > 0
    assert rep.counters.partial_join_rows == (
        first.counters.partial_join_rows + last.counters.partial_join_rows
    )
    # every counter and stage timing of the first step is carried, too
    assert first.counters.candidates_validated == 3
    assert last.counters.candidates_validated == 4
    assert rep.counters.candidates_validated == (
        first.counters.candidates_validated + last.counters.candidates_validated
    ) == 7
    assert first.counters.candidates_refuted == 3
    assert last.counters.candidates_refuted == 11
    assert rep.counters.candidates_refuted == (
        first.counters.candidates_refuted + last.counters.candidates_refuted
    ) == 14
    assert rep.counters.partial_joins_built == (
        first.counters.partial_joins_built + last.counters.partial_joins_built
    )
    assert set(first.timings) <= set(rep.timings)


def test_a_run_profiles_its_pair_once(monkeypatch):
    from joinfd import context, joins

    calls = []

    def spy(left, right, spec):
        calls.append(spec)
        return profile(left, right, spec)

    # both modules bind the function itself
    profile = joins.join_profile
    monkeypatch.setattr(context, "join_profile", spy)
    monkeypatch.setattr(joins, "join_profile", spy)
    for kind in JoinKind:
        prof = FixtureProfile(
            left_rows=12, right_rows=12, left_attrs=3, right_attrs=3,
            dangling_fraction=0.3, duplicate_fraction=0.3, op=kind,
        )
        left, right, spec = make_fixture(prof, seed=4)
        for strategy in pipeline.STRATEGIES:
            calls.clear()
            run_pipeline(left, right, spec, strategy=strategy)
            assert calls == [spec], (kind, strategy)

    # a chain of n tables profiles each of its n - 1 steps once
    prof = FixtureProfile(
        left_rows=8, right_rows=8, left_attrs=2, right_attrs=2,
        dangling_fraction=0.3, op=JoinKind.FULL_OUTER,
    )
    a, b, spec_ab = make_fixture(prof, seed=1)
    c = loads_csv("k2,z\n" + "\n".join(f"s{i},w{i % 2}" for i in range(6)), name="C")
    d = loads_csv("k3,y\n" + "\n".join(f"s{i},u{i % 3}" for i in range(5)), name="D")
    specs = [
        spec_ab,
        JoinSpec.equi(["L.k"], ["k2"], JoinKind.LEFT_OUTER),
        JoinSpec.equi(["(L*R).L.k"], ["k3"], JoinKind.INNER),
    ]
    tables = [a, b, c, d]
    for n in (2, 3, 4):
        for strategy in pipeline.STRATEGIES:
            calls.clear()
            run_left_deep(tables[:n], specs[: n - 1], strategy=strategy)
            assert calls == specs[: n - 1], (n, strategy)
