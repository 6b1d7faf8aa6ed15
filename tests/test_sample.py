import random

import pytest

import conftest
from joinfd import sample
from joinfd.context import JoinContext
from joinfd.discovery import discover_fds
from joinfd.errors import InputError
from joinfd.fds import closure_equal, fd, implies, minimal_cover, remove_implied
from joinfd.fixtures import FixtureProfile, make_fixture
from joinfd.joins import JoinKind, JoinSpec, join, join_profile
from joinfd.oracle import oracle_join_fds
from joinfd.pipeline import run_pipeline
from joinfd.relation import Instance, loads_csv
from joinfd.sample import (
    SampleConfig,
    generate_ids_set,
    micro_join_batch,
    rank_order,
    selective_sampling,
)

from conftest import reference_ids_set


def _k_equi(left, right):
    return JoinContext(left, right, JoinSpec.equi(["k"], ["k"]))


def _groups(inst, on=("k",)):
    """Join value -> row ids, keyed on the `on` columns."""
    ords = [inst.ordinal(a) for a in on]
    groups = {}
    for r, row in enumerate(inst.raw_rows()):
        groups.setdefault(tuple(row[o] for o in ords), []).append(r)
    return groups


def _select(inst, on, cfg):
    """The join values `generate_ids_set` selects among every join value of
    `inst`, ranked by `cfg`. Joined with itself, `inst` shares them all."""
    profile = join_profile(inst, inst, JoinSpec.equi(on, on))
    ranked = rank_order(profile.values, cfg.seed)
    return _values(profile, generate_ids_set(inst, on, profile.left_ids, ranked, cfg))


def _values(profile, ids):
    """The join values behind a set of group ids."""
    return {profile.values[g] for g in ids}


def _sampled(context, cfg):
    """The join values `selective_sampling` selects."""
    return _values(context.profile, selective_sampling(context, cfg))


def test_config_validation():
    with pytest.raises(InputError):
        SampleConfig(n_b=0)
    with pytest.raises(InputError):
        SampleConfig(n_v=-1)


def test_disjoint_join_values_select_nothing():
    left = loads_csv("k,a\n1,x", name="L")
    right = loads_csv("k,b\n2,p", name="R")
    got = _sampled(_k_equi(left, right), SampleConfig())
    assert got == set()


def test_key_unique_sides_select_every_shared_value():
    left = loads_csv("k,a\n1,x\n2,y\n3,z", name="L")
    right = loads_csv("k,b\n1,p\n2,q\n9,r", name="R")
    got = _sampled(_k_equi(left, right), SampleConfig(n_b=1))
    assert got == {("1",), ("2",)}


def test_single_constant_attribute_keeps_one_representative():
    inst = loads_csv("k,a\n1,c\n2,c\n3,c", name="L")
    got = _select(inst, ["k"], SampleConfig(n_b=1, seed=4))
    assert len(got) == 1


def test_leaving_out_every_attribute_selects_every_value():
    # n_v empties the left tree: that side selects every value and the
    # right side's tree decides, so the micro-join is not empty
    inst = loads_csv("k,a\n1,x\n2,y", name="L")
    got = _select(inst, ["k"], SampleConfig(n_b=1, n_v=1))
    assert got == {("1",), ("2",)}
    left = loads_csv("k,a\n1,x\n2,y\n2,y\n3,x", name="L")
    right = loads_csv("k,b,c\n1,p,u\n2,q,u\n3,q,v", name="R")
    rep = run_pipeline(
        left, right, JoinSpec.equi(["k"], ["k"]), strategy="sampling",
        sample_cfg=SampleConfig(n_v=1),
    )
    assert implies(rep.fds, fd(["L.a", "R.b"], "R.k"))
    assert implies(rep.fds, fd(["L.a", "R.c"], "R.k"))
    assert not any("micro-join is empty" in w for w in rep.warnings)
    assert rep.sample_rows_ratio == 0.75


def test_branch_contribution_property():
    rng = random.Random(81)
    for seed in range(25):
        prof = FixtureProfile(left_rows=14, right_rows=14, left_attrs=4, right_attrs=3)
        left, _, _ = make_fixture(prof, seed=seed)
        cfg = SampleConfig(n_b=2, n_v=1, seed=seed)
        got = _select(left, ["k"], cfg)
        all_values = {(row[0],) for row in left.raw_rows()}
        assert got <= all_values
        # recompute one branch by hand: every attribute value contributes
        # at least min(n_b, branch size) values
        names = [a for a in left.attr_names if a != "k"]
        counts = {a: len(set(left.columns[left.ordinal(a)])) for a in names}
        retained = sorted(names, key=lambda a: (counts[a], a))[: len(names) - 1]
        for attr in retained:
            col_idx = left.attr_names.index(attr)
            for value in {row[col_idx] for row in left.raw_rows()}:
                branch = {
                    (row[0],)
                    for row in left.raw_rows()
                    if row[col_idx] == value
                }
                assert len(got & branch) >= min(cfg.n_b, 1)


def test_selection_is_deterministic():
    prof = FixtureProfile(left_rows=16, right_rows=16, left_attrs=4, right_attrs=4,
                          duplicate_fraction=0.4)
    left, right, spec = make_fixture(prof, seed=9)
    cfg = SampleConfig(n_b=1, n_v=1, seed=123)
    a = selective_sampling(_k_equi(left, right), cfg)
    b = selective_sampling(_k_equi(left, right), cfg)
    assert a == b
    c = selective_sampling(_k_equi(left, right), SampleConfig(n_b=1, n_v=1, seed=124))
    assert isinstance(c, set)  # different seed may select differently, still valid


def test_proof_tables_strict_sample(pair_with_join_only_fd):
    left, right, spec = pair_with_join_only_fd
    context = JoinContext(left, right, spec)
    got = _sampled(context, SampleConfig(n_b=1, seed=0))
    shared = {("0",), ("1",), ("2",)}
    assert got <= shared
    assert got == _sampled(context, SampleConfig(n_b=1, seed=0))


def test_micro_join_batch_returns_the_micro_joins_fds():
    prof = FixtureProfile(left_rows=16, right_rows=16, left_attrs=4, right_attrs=4,
                          duplicate_fraction=0.4)
    left, right, spec = make_fixture(prof, seed=9)
    micro, cover = micro_join_batch(
        JoinContext(left, right, spec), SampleConfig(n_b=1, seed=9)
    )
    assert micro is not None
    assert cover == discover_fds(micro)


def test_micro_join_is_submultiset_of_full_join():
    rng = random.Random(82)
    from collections import Counter

    for seed in range(25):
        prof = FixtureProfile(
            left_rows=rng.randint(8, 16), right_rows=rng.randint(8, 16),
            left_attrs=3, right_attrs=3,
            dangling_fraction=rng.choice([0.0, 0.3]),
            duplicate_fraction=0.3,
            op=list(JoinKind)[seed % 6],
        )
        left, right, spec = make_fixture(prof, seed=seed)
        micro, _ = micro_join_batch(
            JoinContext(left, right, spec), SampleConfig(n_b=1, seed=seed)
        )
        if micro is None:
            continue
        micro = Counter(micro.raw_rows())
        full = Counter(join(left, right, spec).raw_rows())
        assert all(micro[row] <= full[row] for row in micro)


def test_sampled_output_implies_every_true_dependency():
    rng = random.Random(83)
    for seed in range(30):
        prof = FixtureProfile(
            left_rows=rng.randint(8, 20), right_rows=rng.randint(8, 20),
            left_attrs=rng.randint(3, 4), right_attrs=rng.randint(3, 4),
            dangling_fraction=rng.choice([0.0, 0.2]),
            duplicate_fraction=rng.choice([0.0, 0.3]),
            op=list(JoinKind)[seed % 6],
        )
        left, right, spec = make_fixture(prof, seed=seed)
        rep = run_pipeline(
            left, right, spec, strategy="sampling",
            sample_cfg=SampleConfig(n_b=1, n_v=1, seed=seed),
        )
        truth = oracle_join_fds(left, right, spec)
        pool = list(rep.fds)
        for d in truth:
            assert implies(pool, d)


def test_degenerate_full_sample_matches_oracle():
    rng = random.Random(84)
    for seed in range(30):
        prof = FixtureProfile(
            left_rows=rng.randint(8, 18), right_rows=rng.randint(8, 18),
            left_attrs=3, right_attrs=4,
            dangling_fraction=rng.choice([0.0, 0.2]),
            duplicate_fraction=rng.choice([0.0, 0.4]),
            op=list(JoinKind)[seed % 6],
        )
        left, right, spec = make_fixture(prof, seed=seed)
        rep = run_pipeline(
            left, right, spec, strategy="sampling",
            sample_cfg=SampleConfig(n_b=10**6, n_v=0, seed=seed),
        )
        truth = oracle_join_fds(left, right, spec)
        assert closure_equal(minimal_cover(rep.fds), truth)
        if spec.kind not in (JoinKind.LEFT_SEMI, JoinKind.RIGHT_SEMI):
            assert rep.sample_rows_ratio == pytest.approx(1.0)


def test_tiny_sample_may_overclaim_but_is_recorded():
    # a deliberately small sample can keep a dependency the full join
    # rejects; precision is then below one and measured, never asserted
    prof = FixtureProfile(
        left_rows=30, right_rows=40, left_attrs=4, right_attrs=4,
        duplicate_fraction=0.5,
    )
    from joinfd.metrics import evaluate

    seen_below_one = False
    for seed in range(12):
        left, right, spec = make_fixture(prof, seed=seed)
        rep = run_pipeline(
            left, right, spec, strategy="sampling",
            sample_cfg=SampleConfig(n_b=1, n_v=2, seed=seed),
        )
        truth = oracle_join_fds(left, right, spec)
        m = evaluate(rep.fds, truth)
        if m.precision < 1.0:
            seen_below_one = True
    assert seen_below_one


def test_empty_selection_warns_and_returns_nothing():
    # an inner join of two sides sharing no value has an empty micro-join
    left = loads_csv("k,a\n1,x", name="L")
    right = loads_csv("k,b\n2,p", name="R")
    spec = JoinSpec.equi(["k"], ["k"], JoinKind.INNER)
    context = JoinContext(left, right, spec)
    micro, cover = micro_join_batch(context, SampleConfig())
    assert micro is None and len(cover) == 0
    assert any("empty" in w for w in context.warnings)


def test_empty_selection_still_joins_dangling_rows():
    # a full outer join of two dangling rows has two rows, whose
    # dependencies the sample must carry
    left = loads_csv("k,a\n1,x", name="L")
    right = loads_csv("k,b\n2,p", name="R")
    spec = JoinSpec.equi(["k"], ["k"], JoinKind.FULL_OUTER)
    context = JoinContext(left, right, spec)
    micro, cover = micro_join_batch(context, SampleConfig())
    assert micro is not None and micro.row_count == 2
    assert remove_implied(cover) == oracle_join_fds(left, right, spec)
    assert not context.warnings


def test_key_only_side_selects_every_shared_value():
    left = loads_csv("k\n1\n2\n3", name="L")
    right = loads_csv("k,b\n1,p\n2,p\n2,q\n4,q", name="R")
    spec = JoinSpec.equi(["k"], ["k"], JoinKind.INNER)
    context = JoinContext(left, right, spec)
    profile = context.profile
    ranked = rank_order(profile.values[: profile.n_shared], 0)
    picked_right = generate_ids_set(
        right, ["k"], profile.right_ids, ranked, SampleConfig()
    )
    assert selective_sampling(context, SampleConfig()) == picked_right != set()


@pytest.mark.parametrize("n_v", [0, 1])
@pytest.mark.parametrize("n_b", [1, 2, 3])
def test_selection_matches_the_two_sort_reference(n_b, n_v):
    rng = random.Random(85 + 10 * n_b + n_v)
    for seed in range(12):
        prof = FixtureProfile(
            left_rows=rng.randint(20, 60), right_rows=rng.randint(20, 60),
            left_attrs=rng.randint(2, 4), right_attrs=rng.randint(2, 4),
            dangling_fraction=0.2, duplicate_fraction=0.3,
        )
        left, right, spec = make_fixture(prof, seed=seed)
        # composite keys holding nulls and the text "None"
        domain = ["x", "y", "None", None]
        composite = Instance.from_rows(
            ["k0", "k1", "a", "b"],
            [[rng.choice(domain) for _ in range(2)] + [str(rng.randrange(3)), "c"]
             for _ in range(30)],
        )
        cfg = SampleConfig(n_b=n_b, n_v=n_v, seed=seed)
        for inst, on in ((left, ["k"]), (right, ["k"]), (composite, ["k0", "k1"])):
            want = reference_ids_set(inst, on, _groups(inst, on), cfg)
            assert _select(inst, on, cfg) == want, (seed, on)


@pytest.mark.parametrize("n_b", [1, 2])
def test_crc32_ties_break_on_the_value_itself(monkeypatch, n_b):
    # three rank values among dozens of candidates: ties decide the choice
    crc = sample._rank

    def coarse(seed, value):
        return crc(seed, value) % 3

    monkeypatch.setattr(sample, "_rank", coarse)
    monkeypatch.setattr(conftest, "_rank", coarse)  # read by reference_ids_set
    rng = random.Random(86 + n_b)
    domain = ["x", "y", "z", "None", None]
    for seed in range(12):
        inst = Instance.from_rows(
            ["k0", "k1", "a"],
            [[rng.choice(domain) for _ in range(2)] + [str(rng.randrange(2))]
             for _ in range(30)],
        )
        groups = _groups(inst, ["k0", "k1"])
        cfg = SampleConfig(n_b=n_b, seed=seed)
        got = _select(inst, ["k0", "k1"], cfg)
        assert got == reference_ids_set(inst, ["k0", "k1"], groups, cfg)


def _tall_pair(seed):
    """A pair shaped like the benchmark's tall-inner workload."""
    prof = FixtureProfile(
        left_rows=400, right_rows=400, left_attrs=3, right_attrs=3,
        dangling_fraction=0.3, duplicate_fraction=0.3,
        domain_low=3, domain_high=200,
    )
    return make_fixture(prof, seed=seed)


@pytest.mark.parametrize("coarse", [False, True])
@pytest.mark.parametrize("n_v", [0, 1])
@pytest.mark.parametrize("n_b", [1, 2, 3])
def test_selection_matches_the_reference_on_tall_sides(monkeypatch, n_b, n_v, coarse):
    if coarse:  # three rank values among hundreds of candidates
        crc = sample._rank

        def coarse_rank(seed, value):
            return crc(seed, value) % 3

        monkeypatch.setattr(sample, "_rank", coarse_rank)
        monkeypatch.setattr(conftest, "_rank", coarse_rank)  # read by reference_ids_set
    for seed in range(3):
        left, right, spec = _tall_pair(seed)
        profile = JoinContext(left, right, spec).profile
        cfg = SampleConfig(n_b=n_b, n_v=n_v, seed=seed)
        shared = profile.values[: profile.n_shared]
        ranked = rank_order(shared, cfg.seed)
        for inst, ids in ((left, profile.left_ids), (right, profile.right_ids)):
            candidates = {v: rows for v, rows in _groups(inst).items() if v in shared}
            got = _values(profile, generate_ids_set(inst, ["k"], ids, ranked, cfg))
            assert got == reference_ids_set(inst, ["k"], candidates, cfg), seed


def test_each_shared_value_is_ranked_once_per_selection(monkeypatch):
    calls = []
    crc = sample._rank

    def counted(seed, value):
        calls.append(value)
        return crc(seed, value)

    monkeypatch.setattr(sample, "_rank", counted)
    left, right, spec = _tall_pair(4)
    context = JoinContext(left, right, spec)
    for cfg in (SampleConfig(), SampleConfig(n_b=2, seed=5)):
        calls.clear()
        selective_sampling(context, cfg)
        profile = context.profile
        assert sorted(calls) == sorted(profile.values[: profile.n_shared])
