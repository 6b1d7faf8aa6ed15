import random

import pytest

from conftest import reference_upstage, stage0_sets, stage0_upstage
from joinfd import discovery, pipeline
from joinfd import upstage as upstage_module
from joinfd.context import JoinContext
from joinfd.discovery import discover_fds, holds
from joinfd.errors import InternalInvariantError
from joinfd.fds import FdSet, closure_equal, fd, implies
from joinfd.fixtures import FixtureProfile, make_fixture, planted_afd
from joinfd.joins import JoinKind, JoinSpec, join, left_name_map
from joinfd.pipeline import run_pipeline
from joinfd.relation import loads_csv
from joinfd.upstage import upstage
from test_differential import _pairs as tiny_random_pairs


def _bijective_pair():
    left = loads_csv("k,a,b\n1,x,p\n2,x,q\n3,y,p", name="L")
    right = loads_csv("k,c\n1,m\n2,n\n3,m", name="R")
    return left, right, JoinSpec.equi(["k"], ["k"])


def test_nothing_upstaged_when_join_values_preserved():
    left, right, spec = _bijective_pair()
    got = upstage(JoinContext(left, right, spec))
    assert len(got.left_upstaged) == 0
    assert len(got.right_upstaged) == 0


def test_dangling_violator_promotes_the_dependency():
    # the flag almost determines the date; the one violating row has a join
    # value missing on the other side, so the join filters it away
    left = loads_csv(
        "k,flag,date\np1,0,d1\np2,0,d1\np3,1,d2\np4,1,d2\np5,1,dX", name="L"
    )
    right = loads_csv("k,ward\np1,w\np2,w\np3,w\np4,w", name="R")
    spec = JoinSpec.equi(["k"], ["k"])
    got = upstage(JoinContext(left, right, spec))
    assert fd(["flag"], "date") in got.left_upstaged
    joined = join(left, right, spec)
    assert holds(joined, fd(["flag"], "date").rename(left_name_map(left, right, spec)))


def test_surviving_violator_blocks_promotion():
    left = loads_csv(
        "k,flag,date\np1,0,d1\np2,0,d1\np3,1,d2\np4,1,d2\np5,1,dX", name="L"
    )
    right = loads_csv("k,ward\np1,w\np2,w\np3,w\np4,w\np5,w", name="R")
    got = upstage(JoinContext(left, right, JoinSpec.equi(["k"], ["k"])))
    assert fd(["flag"], "date") not in got.left_upstaged
    on_join = got.left_preserved.union(got.left_upstaged)
    assert not implies(on_join, fd(["flag"], "date"))


def test_no_filtering_means_no_new_fds():
    left = loads_csv("k,a\n1,x\n2,y", name="L")
    right = loads_csv("k,b\n1,p\n2,q", name="R")
    exact, _ = discover_fds(left)
    got = upstage(JoinContext(left, right, JoinSpec.equi(["k"], ["k"])), left_fds=exact)
    assert len(got.left_upstaged) == 0


def test_dangled_duplicate_reveals_key():
    # two rows collide on a; the collision partner dangles, so after the
    # filter a becomes a key
    left = loads_csv("k,a,b\n1,x,p\n2,x,q\n3,y,p", name="L")
    right = loads_csv("k,c\n1,m\n3,n", name="R")
    exact, _ = discover_fds(left)
    got = upstage(
        JoinContext(left, right, JoinSpec.equi(["k"], ["k"])), left_fds=exact
    ).left_upstaged
    assert implies(list(got) + list(exact), fd(["a"], "b"))


def test_known_dependencies_never_reappear():
    rng = random.Random(51)
    for seed in range(20):
        prof = FixtureProfile(
            left_rows=10, right_rows=10, left_attrs=3, right_attrs=2,
            dangling_fraction=0.3,
        )
        left, right, spec = make_fixture(prof, seed=seed)
        exact, _ = discover_fds(left)
        got = upstage(JoinContext(left, right, spec), left_fds=exact).left_upstaged
        for d in got:
            assert not implies(exact, d)


def test_promotion_and_blocking_match_the_oracle():
    for seed in range(40):
        positive = seed % 2 == 0
        prof = FixtureProfile(
            left_rows=12,
            right_rows=12,
            left_attrs=3,
            right_attrs=2,
            dangling_fraction=0.25,
            planted_afd_degree=1,
            upstage_positive=positive,
        )
        left, right, spec = make_fixture(prof, seed=seed)
        afd = planted_afd(prof)
        got = upstage(JoinContext(left, right, spec))
        joined = join(left, right, spec)
        renamed = afd.fd.rename(left_name_map(left, right, spec))
        if positive:
            assert afd.fd in got.left_upstaged or implies(got.left_upstaged, afd.fd)
            assert holds(joined, renamed)
        else:
            assert afd.fd not in got.left_upstaged
            assert not holds(joined, renamed)


def test_upstaged_fds_hold_on_the_join():
    rng = random.Random(52)
    for seed in range(30):
        prof = FixtureProfile(
            left_rows=rng.randint(6, 14),
            right_rows=rng.randint(6, 14),
            left_attrs=3,
            right_attrs=3,
            dangling_fraction=0.4,
            op=list(JoinKind)[seed % 6],
        )
        left, right, spec = make_fixture(prof, seed=seed)
        got = stage0_upstage(JoinContext(left, right, spec))
        joined = join(left, right, spec)
        lmap = left_name_map(left, right, spec)
        from joinfd.joins import right_name_map

        rmap = right_name_map(left, right, spec)
        if spec.kind is not JoinKind.RIGHT_SEMI:
            for d in got.left_upstaged:
                assert holds(joined, d.rename(lmap))
        if spec.kind is not JoinKind.LEFT_SEMI:
            for d in got.right_upstaged:
                assert holds(joined, d.rename(rmap))


def test_afd_path_agrees_with_discovery_path():
    # the planted approximate dependency is upstaged whether or not the
    # input's own set is given, and both splits cover the side's rows
    for seed in range(20):
        prof = FixtureProfile(
            left_rows=12, right_rows=12, left_attrs=3, right_attrs=2,
            dangling_fraction=0.25, planted_afd_degree=1, upstage_positive=True,
        )
        left, right, spec = make_fixture(prof, seed=seed)
        afd = planted_afd(prof)
        exact, _ = discover_fds(left)
        via_afds = upstage(JoinContext(left, right, spec))
        via_discovery = upstage(JoinContext(left, right, spec), left_fds=exact)
        pool = list(via_discovery.left_upstaged) + list(exact)
        for d in via_afds.left_upstaged:
            assert implies(pool, d)
        assert implies(via_afds.left_upstaged, afd.fd)
        assert implies(via_discovery.left_upstaged.union(exact), afd.fd)
        assert closure_equal(
            via_afds.left_preserved.union(via_afds.left_upstaged),
            via_discovery.left_preserved.union(via_discovery.left_upstaged),
        )


def test_preserved_side_of_outer_join_never_upstages():
    left = loads_csv("k,a,b\n1,x,p\n2,x,q\n3,y,p", name="L")
    right = loads_csv("k,c\n1,m\n3,n", name="R")
    spec = JoinSpec.equi(["k"], ["k"], JoinKind.LEFT_OUTER)
    got = stage0_upstage(JoinContext(left, right, spec))
    assert len(got.left_upstaged) == 0  # left rows all survive a left outer


def _fixture_pairs():
    # 216 pairs: every operator at dangling fractions 0, 0.2 and 0.5
    rng = random.Random(53)
    pairs = []
    for seed in range(216):
        prof = FixtureProfile(
            left_rows=rng.randint(5, 20),
            right_rows=rng.randint(5, 20),
            left_attrs=rng.randint(2, 4),
            right_attrs=rng.randint(2, 4),
            dangling_fraction=(0.0, 0.2, 0.5)[seed % 3],
            duplicate_fraction=0.3,
            op=list(JoinKind)[seed // 3 % 6],
        )
        pairs.append(make_fixture(prof, seed=seed))
    # tiny pairs with composite keys, nulls and natural joins
    return pairs + tiny_random_pairs()[::2]


def test_reports_match_mining_every_input_whole(monkeypatch):
    violated = {"selective": 0, "sampling": 0}
    for left, right, spec in _fixture_pairs():
        for strategy in violated:
            got = run_pipeline(left, right, spec, strategy=strategy)
            with monkeypatch.context() as patched:
                patched.setattr(pipeline, "upstage", reference_upstage)
                want = run_pipeline(left, right, spec, strategy=strategy)
            assert closure_equal(got.fds, want.fds), (spec, strategy)
            assert got.violated_fds == want.violated_fds, (spec, strategy)
            violated[strategy] += bool(got.violated_fds)
    # padding breaks some input member on some pair, for both strategies
    assert all(violated.values()), violated


def test_side_local_output_is_preserved_iff_an_input_member():
    # a member that padding breaks is no dependency of the join, though a
    # sampled report may still claim it
    preserved = 0
    for left, right, spec in _fixture_pairs():
        context = JoinContext(left, right, spec)
        sides = [
            (side, {qual: a for a, qual in names.items()}, discover_fds(inst)[0], sub)
            for side, inst, names in (
                ("left", left, context.lmap),
                ("right", right, context.rmap),
            )
            if (sub := context.side_subinstance(side)) is not None
        ]
        for strategy in ("selective", "sampling"):
            rep = run_pipeline(left, right, spec, strategy=strategy)
            for d in rep.fds:
                local = [
                    (side, d.rename(base) in members and holds(sub, d.rename(base)))
                    for side, base, members, sub in sides
                    if d.rhs in base and d.lhs <= base.keys()
                ]
                if not local:
                    continue
                member_of = [side for side, member in local if member]
                tag = rep.fds.origins[d]
                if member_of:
                    assert tag == f"preserved-{member_of[0]}", (spec, strategy, d)
                    preserved += 1
                else:
                    assert not tag.startswith("preserved-"), (spec, strategy, d)
    assert preserved > 0


def test_preserved_are_input_members_and_cover_the_side_rows():
    # on a padded side a smaller lhs can hold on the input and be broken by
    # padding, so a minimal dependency of the side's rows that holds on the
    # input need not be minimal there
    for left, right, spec in _fixture_pairs():
        context = JoinContext(left, right, spec)
        got = stage0_upstage(context)
        for side, inst, kept, upstaged in (
            ("left", left, got.left_preserved, got.left_upstaged),
            ("right", right, got.right_preserved, got.right_upstaged),
        ):
            sub = context.side_subinstance(side)
            if sub is None:
                continue
            members = discover_fds(inst)[0]
            assert all(d in members for d in kept), (spec, side)
            assert closure_equal(kept.union(upstaged), discover_fds(sub)[0])


@pytest.fixture
def mined_inputs(monkeypatch):
    """The names of the tables each `discovery.discover_fds` call mines,
    spied on wherever the package binds it."""
    seen: list[str] = []

    def spy(instance, epsilon=0.0):
        seen.append(instance.name)
        return discover_fds(instance, epsilon)

    for module in (discovery, pipeline):
        monkeypatch.setattr(module, "discover_fds", spy)
    return seen


def _dangling_pair(kind):
    # k=3 dangles on the left and k=4 on the right; c is constant on the
    # right, so right padding breaks {} -> c
    left = loads_csv("k,a,b\n1,x,p\n2,x,q\n3,y,p", name="L")
    right = loads_csv("k,c,d\n1,m,u\n2,m,v\n4,m,u", name="R")
    return left, right, JoinSpec.equi(["k"], ["k"], kind)


def test_inner_join_mines_no_input_table(mined_inputs):
    left, right, spec = _dangling_pair(JoinKind.INNER)
    for strategy in ("selective", "sampling"):
        mined_inputs.clear()
        rep = run_pipeline(left, right, spec, strategy=strategy)
        assert "L" not in mined_inputs and "R" not in mined_inputs, strategy
        assert rep.violated_fds == []
        assert "single_tables" in rep.timings


def test_one_sided_outer_join_mines_only_the_padded_input(mined_inputs):
    # a left outer join keeps every left row and pads the right side
    left, right, spec = _dangling_pair(JoinKind.LEFT_OUTER)
    for strategy in ("selective", "sampling"):
        mined_inputs.clear()
        rep = run_pipeline(left, right, spec, strategy=strategy)
        assert [n for n in mined_inputs if n in ("L", "R")] == ["R"], strategy
        assert rep.violated_fds == ["right: {} -> c"], strategy


def test_dropped_preserved_dependency_still_raises(monkeypatch):
    # without nulls, padding breaks no member with a nonempty lhs; a stage
    # that loses one anyway is a bug, and the run must refuse to report
    left, right, spec = _dangling_pair(JoinKind.LEFT_OUTER)
    real = upstage_module.upstage

    def lossy(context, **sets):
        got = real(context, **sets)
        got.right_preserved = FdSet(d for d in got.right_preserved if not d.lhs)
        return got

    monkeypatch.setattr(pipeline, "upstage", lossy)
    with pytest.raises(InternalInvariantError, match="right table no longer holds"):
        run_pipeline(left, right, spec)


def test_each_mined_side_is_searched_once_without_a_known_set(monkeypatch):
    # upstaging mines each side's join rows once, whole: one search per side
    # that is neither dropped nor its own input with a set, handed only that
    # side's partitions
    searched = []
    real = discovery._search

    def spy(*args, **kwargs):
        searched.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(discovery, "_search", spy)
    own_inputs = 0
    for i, (left, right, spec) in enumerate(_fixture_pairs()):
        context = JoinContext(left, right, spec)
        sets = stage0_sets(context)
        if i % 2:  # as a caller who gives both sets
            sets = {
                "left_fds": discover_fds(left)[0],
                "right_fds": discover_fds(right)[0],
            }
        mined = []
        for side, inst in (("left", left), ("right", right)):
            sub = context.side_subinstance(side)
            if sub is inst and f"{side}_fds" in sets:
                own_inputs += 1
            elif sub is not None:
                mined.append(((context.side_partitions(side),), {}))
        searched.clear()
        upstage(context, **sets)
        assert searched == mined, spec
    assert own_inputs > 0


def test_padded_side_without_its_input_set_raises():
    for kind, missing in (
        (JoinKind.LEFT_OUTER, "right"),
        (JoinKind.RIGHT_OUTER, "left"),
        (JoinKind.FULL_OUTER, "left"),
    ):
        left, right, spec = _dangling_pair(kind)
        context = JoinContext(left, right, spec)
        with pytest.raises(InternalInvariantError, match=f"padded {missing} side"):
            upstage(context)
