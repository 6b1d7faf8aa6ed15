import random

from joinfd import pipeline
from joinfd.context import JoinContext
from joinfd.discovery import discover_fds, holds
from joinfd.fds import FdSet, fd, implies
from joinfd.infer import _minimal_determiners, infer, infer_join_fds, refine
from joinfd.fixtures import FixtureProfile, make_fixture
from joinfd.joins import SEMI_KINDS, JoinKind, JoinSpec, join
from joinfd.pipeline import run_pipeline
from joinfd.relation import loads_csv
from joinfd.upstage import upstage

from conftest import random_rules, reference_minimal_determiners


def test_single_transitivity_step():
    sigma = FdSet([fd(["A"], "X")])
    sigma_prime = FdSet([fd(["Y"], "b")])
    got = infer(["X"], ["Y"], sigma, sigma_prime)
    assert fd(["A"], "b") in got


def test_empty_rhs_rules_reach_only_the_join_attributes():
    # nothing beyond Y itself is derivable on the rhs side, so only the
    # key-pairing products can come out
    got = infer(["X"], ["Y"], FdSet([fd(["A"], "X")]), FdSet())
    assert all(d.rhs == "Y" for d in got)
    assert fd(["A"], "b") not in got


def test_composite_determination_fires_through_closure():
    sigma = FdSet([fd(["A"], "c"), fd(["c"], "X")])
    sigma_prime = FdSet([fd(["Y"], "b")])
    got = infer(["X"], ["Y"], sigma, sigma_prime)
    assert fd(["A"], "b") in got


def test_admission_style_chain():
    # admit time determines the person id on one side; the id determines the
    # birth date on the other; so admit time determines the birth date
    left = loads_csv(
        "pid,admit,diag\n1,t1,d1\n1,t2,d2\n2,t3,d1", name="ADM"
    )
    right = loads_csv("pid,dob\n1,b1\n2,b2", name="PAT")
    spec = JoinSpec.equi(["pid"], ["pid"])
    sigma_l = discover_fds(left)
    sigma_r = discover_fds(right)
    got = infer_join_fds(JoinContext(left, right, spec), sigma_l, sigma_r)
    assert implies(got.fds, fd(["ADM.admit"], "PAT.dob"))
    assert fd(["ADM.admit"], "PAT.pid") in got.fds
    assert got.provenance[fd(["ADM.admit"], "PAT.pid")]


def test_proof_tables_infer_nothing_for_the_mixed_rhs(pair_with_join_only_fd):
    left, right, spec = pair_with_join_only_fd
    sigma_l = discover_fds(left)
    sigma_r = discover_fds(right)
    got = infer_join_fds(JoinContext(left, right, spec), sigma_l, sigma_r)
    # nothing with a pure left-side lhs can determine C: A does not
    # determine X on the left table
    for d in got.fds:
        if d.rhs == "R.C":
            assert not d.lhs <= {"L.X", "L.A"}


def test_inferred_fds_hold_on_the_full_join():
    rng = random.Random(61)
    for seed in range(30):
        prof = FixtureProfile(
            left_rows=rng.randint(6, 14), right_rows=rng.randint(6, 14),
            left_attrs=3, right_attrs=3,
            dangling_fraction=rng.choice([0.0, 0.3]),
            op=list(JoinKind)[seed % 6],
        )
        left, right, spec = make_fixture(prof, seed=seed)
        if spec.kind in (JoinKind.LEFT_SEMI, JoinKind.RIGHT_SEMI):
            continue
        sigma_l, sigma_r = upstage(JoinContext(left, right, spec))
        got = infer_join_fds(JoinContext(left, right, spec), sigma_l, sigma_r)
        joined = join(left, right, spec)
        for d in got.fds:
            assert holds(joined, d), f"{d} fails on seed {seed} {spec.kind}"


def test_pruning_theorem_on_random_joins():
    # if the join attributes do not determine b, no pure one-sided lhs does
    rng = random.Random(62)
    from itertools import combinations

    for seed in range(20):
        prof = FixtureProfile(
            left_rows=10, right_rows=10, left_attrs=3, right_attrs=3,
            dangling_fraction=0.2,
        )
        left, right, spec = make_fixture(prof, seed=seed)
        joined = join(left, right, spec)
        left_attrs = [f"L.{a}" for a in left.attr_names if a != "k"]
        for b in (f"R.{a}" for a in right.attr_names if a != "k"):
            if holds(joined, fd(["L.k"], b)):
                continue
            for size in (1, 2):
                for combo in combinations(left_attrs, size):
                    assert not holds(joined, fd(combo, b))


def test_refine_keeps_singleton_lhs_without_a_join():
    got = refine(FdSet([fd(["L.a"], "R.b")]))
    assert got == {fd(["L.a"], "R.b")}


def _adm_pair():
    # the inferred rule needs both loc and diag to reach pid on ADM, but diag
    # alone determines dob on the join: pids 1 and 2 share diag d1 and dob b1
    left = loads_csv("pid,loc,diag\n1,e,d1\n2,w,d1\n3,w,d3", name="ADM")
    right = loads_csv("pid,dob\n1,b1\n2,b1\n3,b3", name="PAT")
    return left, right, JoinSpec.equi(["pid"], ["pid"])


def test_mining_finds_the_smaller_lhs_of_an_inferred_fd():
    left, right, spec = _adm_pair()
    context = JoinContext(left, right, spec)
    inferred = infer_join_fds(context, *upstage(context))
    assert implies(inferred.fds, fd(["ADM.loc", "ADM.diag"], "PAT.dob"))
    assert not implies(inferred.fds, fd(["ADM.diag"], "PAT.dob"))
    report = run_pipeline(left, right, spec, strategy="selective")
    assert report.fds.origins.get(fd(["ADM.diag"], "PAT.dob")) == "mined"
    assert fd(["ADM.loc", "ADM.diag"], "PAT.dob") not in report.fds


def test_only_mining_validates_on_the_join_validator():
    # inference neither validates nor refutes; mining validates on the join
    # validator, and no partial join is behind any validation
    left, right, spec = _adm_pair()
    context = JoinContext(left, right, spec)
    infer_join_fds(context, *upstage(context))
    assert context.counters.candidates_validated == 0
    assert context.counters.candidates_refuted == 0
    counters = run_pipeline(left, right, spec, strategy="selective").counters
    assert counters.candidates_validated >= 1
    assert counters.partial_joins_built == counters.partial_join_rows == 0


def test_only_selective_runs_inference(monkeypatch):
    # the micro-join's rows are join rows, so what sampling mines implies
    # every member inference would add: sampling runs no stage 2, and its
    # reports carry no inferred origin, no provenance and no infer timing
    calls = []
    real = pipeline.infer_join_fds

    def spy(context, sigma_left, sigma_right):
        calls.append(context.spec)
        return real(context, sigma_left, sigma_right)

    monkeypatch.setattr(pipeline, "infer_join_fds", spy)
    inferred = 0
    for seed, kind in enumerate(list(JoinKind) * 4):
        prof = FixtureProfile(left_attrs=4, right_attrs=4, dangling_fraction=0.2, op=kind)
        left, right, spec = make_fixture(prof, seed=seed)
        calls.clear()
        sampled = run_pipeline(left, right, spec, strategy="sampling")
        assert calls == [], spec
        assert "inferred" not in sampled.origin_counts(), spec
        assert "infer" not in sampled.timings and not sampled.provenance, spec
        assert not any("provenance" in d for d in sampled.to_json()["fds"]), spec
        selective = run_pipeline(left, right, spec, strategy="selective")
        assert calls == ([] if kind in SEMI_KINDS else [spec]), spec
        assert ("infer" in selective.timings) == (kind not in SEMI_KINDS), spec
        inferred += selective.origin_counts().get("inferred", 0)
    assert inferred > 0


def test_upstaging_finds_the_constant_subset():
    # b is constant on R's join rows (k 3 dangles), not on R: upstaging, not
    # inference, reports the empty lhs
    left = loads_csv("k,a\n1,x\n2,y", name="L")
    right = loads_csv("k,b\n1,same\n2,same\n3,other", name="R")
    spec = JoinSpec.equi(["k"], ["k"])
    report = run_pipeline(left, right, spec, strategy="selective")
    assert report.fds.origins.get(fd([], "R.b")) == "upstaged-right"
    assert fd(["L.a"], "R.b") not in report.fds


def test_refine_never_emits_a_violated_dependency():
    rng = random.Random(63)
    for seed in range(20):
        prof = FixtureProfile(
            left_rows=12, right_rows=12, left_attrs=4, right_attrs=3,
            dangling_fraction=0.25,
        )
        left, right, spec = make_fixture(prof, seed=seed)
        sigma_l, sigma_r = upstage(JoinContext(left, right, spec))
        got = infer_join_fds(JoinContext(left, right, spec), sigma_l, sigma_r)
        joined = join(left, right, spec)
        for d in got.fds:
            assert holds(joined, d)


def test_refined_output_implies_inferred_input():
    rng = random.Random(64)
    from joinfd.infer import infer

    for seed in range(15):
        prof = FixtureProfile(
            left_rows=10, right_rows=10, left_attrs=3, right_attrs=3,
            dangling_fraction=0.2,
        )
        left, right, spec = make_fixture(prof, seed=seed)
        context = JoinContext(left, right, spec)
        sigma_l, sigma_r = upstage(context)
        raw = infer(
            spec.left_on, spec.right_on, sigma_l, sigma_r,
            lhs_map=context.lmap, rhs_map=context.rmap,
        )
        refined = refine(raw)
        for d in raw:
            assert implies(refined, d)


def test_output_stable_under_input_order():
    left = loads_csv("k,a,b\n1,x,p\n2,y,q\n3,y,q", name="L")
    right = loads_csv("k,c\n1,m\n2,n\n3,n", name="R")
    spec = JoinSpec.equi(["k"], ["k"])
    sigma_l = discover_fds(left)
    sigma_r = discover_fds(right)
    a = infer_join_fds(JoinContext(left, right, spec), sigma_l, sigma_r)
    shuffled_l = FdSet(list(sigma_l)[::-1])
    shuffled_r = FdSet(list(sigma_r)[::-1])
    b = infer_join_fds(JoinContext(left, right, spec), shuffled_l, shuffled_r)
    assert a.fds == b.fds


def test_minimal_determiners_match_the_subset_enumeration():
    rng = random.Random(74)
    seen = {"no rules": 0, "empty determiner": 0}
    for _ in range(400):
        names = [f"a{i}" for i in range(rng.randint(1, 7))]
        sigma = random_rules(rng, names)
        target = frozenset(rng.sample(names, rng.randint(1, min(3, len(names)))))
        expected = reference_minimal_determiners(target, FdSet(sigma.as_set()))
        assert _minimal_determiners(target, sigma) == expected
        seen["no rules"] += not sigma.as_set()
        seen["empty determiner"] += expected == [frozenset()]
    assert min(seen.values()) >= 40, seen
