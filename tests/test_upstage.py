import random

import pytest

from conftest import reference_upstage
from joinfd import context as context_module
from joinfd import discovery, pipeline
from joinfd import upstage as upstage_module
from joinfd.context import JoinContext
from joinfd.discovery import discover_fds, holds
from joinfd.errors import InternalInvariantError
from joinfd.fds import FdSet, closure_equal, fd, implies
from joinfd.fixtures import FixtureProfile, make_fixture, planted_afd
from joinfd.joins import JoinKind, JoinSpec, join, name_maps
from joinfd.pipeline import run_pipeline
from joinfd.relation import loads_csv
from joinfd.upstage import preserved_tags, upstage
from test_differential import _pairs as tiny_random_pairs


def _bijective_pair():
    left = loads_csv("k,a,b\n1,x,p\n2,x,q\n3,y,p", name="L")
    right = loads_csv("k,c\n1,m\n2,n\n3,m", name="R")
    return left, right, JoinSpec.equi(["k"], ["k"])


def _upstaged_tags(left, right, spec) -> list[str]:
    """The `upstaged-*` tags of every strategy's report."""
    return [
        tag
        for strategy in ("selective", "sampling", "oracle")
        for tag in run_pipeline(left, right, spec, strategy=strategy).fds.origins.values()
        if tag.startswith("upstaged-")
    ]


def _tag(left, right, spec, d, side="left"):
    """The tag `preserved_tags` gives the side-local final member `d`,
    mined on the join rows of the unpadded side `side`."""
    context = JoinContext(left, right, spec)
    joined = d.rename(context.lmap if side == "left" else context.rmap)
    final = FdSet()
    final.add(joined, f"upstaged-{side}")
    return preserved_tags(final, final, context).origins[joined]


def test_nothing_upstaged_when_join_values_preserved():
    left, right, spec = _bijective_pair()
    got = upstage(JoinContext(left, right, spec))
    assert got == (discover_fds(left), discover_fds(right))
    assert _upstaged_tags(left, right, spec) == []


def test_dangling_violator_promotes_the_dependency():
    # the flag almost determines the date; the one violating row has a join
    # value missing on the other side, so the join filters it away
    left = loads_csv(
        "k,flag,date\np1,0,d1\np2,0,d1\np3,1,d2\np4,1,d2\np5,1,dX", name="L"
    )
    right = loads_csv("k,ward\np1,w\np2,w\np3,w\np4,w", name="R")
    spec = JoinSpec.equi(["k"], ["k"])
    got, _ = upstage(JoinContext(left, right, spec))
    assert fd(["flag"], "date") in got
    assert not holds(left, fd(["flag"], "date"))
    assert _tag(left, right, spec, fd(["flag"], "date")) == "upstaged-left"
    joined = join(left, right, spec)
    assert holds(joined, fd(["flag"], "date").rename(name_maps(left, right, spec)[0]))


def test_surviving_violator_blocks_promotion():
    left = loads_csv(
        "k,flag,date\np1,0,d1\np2,0,d1\np3,1,d2\np4,1,d2\np5,1,dX", name="L"
    )
    right = loads_csv("k,ward\np1,w\np2,w\np3,w\np4,w\np5,w", name="R")
    got, _ = upstage(JoinContext(left, right, JoinSpec.equi(["k"], ["k"])))
    assert fd(["flag"], "date") not in got
    assert not implies(got, fd(["flag"], "date"))


def test_no_filtering_means_no_new_fds():
    left = loads_csv("k,a\n1,x\n2,y", name="L")
    right = loads_csv("k,b\n1,p\n2,q", name="R")
    spec = JoinSpec.equi(["k"], ["k"])
    got, _ = upstage(JoinContext(left, right, spec))
    assert got == discover_fds(left)
    assert "upstaged-left" not in _upstaged_tags(left, right, spec)


def test_dangled_duplicate_reveals_key():
    # two rows collide on a; the collision partner dangles, so after the
    # filter a becomes a key
    left = loads_csv("k,a,b\n1,x,p\n2,x,q\n3,y,p", name="L")
    right = loads_csv("k,c\n1,m\n3,n", name="R")
    exact = discover_fds(left)
    got, _ = upstage(JoinContext(left, right, JoinSpec.equi(["k"], ["k"])))
    assert implies(got, fd(["a"], "b"))
    assert not implies(exact, fd(["a"], "b"))


def test_known_dependencies_never_reappear():
    rng = random.Random(51)
    for seed in range(20):
        prof = FixtureProfile(
            left_rows=10, right_rows=10, left_attrs=3, right_attrs=2,
            dangling_fraction=0.3,
        )
        left, right, spec = make_fixture(prof, seed=seed)
        exact = discover_fds(left)
        got, _ = upstage(JoinContext(left, right, spec))
        # a mined member the input implies is one of the input's own
        for d in got:
            assert d in exact or not implies(exact, d)
        # and none tagged upstaged is implied there
        rep = run_pipeline(left, right, spec)
        base = {qual: a for a, qual in name_maps(left, right, spec)[0].items()}
        for d in rep.fds:
            if rep.fds.origins[d] == "upstaged-left":
                assert not implies(exact, d.rename(base))


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
        planted = planted_afd(prof)
        got, _ = upstage(JoinContext(left, right, spec))
        joined = join(left, right, spec)
        renamed = planted.rename(name_maps(left, right, spec)[0])
        if positive:
            assert implies(got, planted) and not holds(left, planted)
            assert holds(joined, renamed)
        else:
            assert planted not in got and not implies(got, planted)
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
        got_left, got_right = upstage(JoinContext(left, right, spec))
        joined = join(left, right, spec)
        lmap, rmap = name_maps(left, right, spec)
        if spec.kind is not JoinKind.RIGHT_SEMI:
            for d in got_left:
                assert holds(joined, d.rename(lmap))
        if spec.kind is not JoinKind.LEFT_SEMI:
            for d in got_right:
                assert holds(joined, d.rename(rmap))


def test_a_dropped_value_breaks_a_member_holding_the_join_key():
    # a, k -> b holds on the rows of k = 1 and 2; the two rows of the dropped
    # value k = 3 break it on the input, so the join made it exact
    right = loads_csv("k,c\n1,m\n2,n", name="R")
    left = loads_csv("k,a,b\n1,x,p\n1,y,q\n2,x,q\n2,y,p\n3,x,p\n3,x,q", name="L")
    spec = JoinSpec.equi(["k"], ["k"])
    assert fd(["a", "k"], "b") in upstage(JoinContext(left, right, spec))[0]
    assert _tag(left, right, spec, fd(["a", "k"], "b")) == "upstaged-left"
    # the same dropped rows, consistent with the member: it holds on the input
    left = loads_csv("k,a,b\n1,x,p\n1,y,q\n2,x,q\n2,y,p\n3,x,p\n3,y,q", name="L")
    assert fd(["a", "k"], "b") in upstage(JoinContext(left, right, spec))[0]
    assert _tag(left, right, spec, fd(["a", "k"], "b")) == "preserved-left"


def test_a_dropped_row_breaks_a_member_missing_a_join_attribute():
    # the dropped row meets a kept row on the lhs: no join value's rows alone
    # can show it, so the input's partitions decide
    right = loads_csv("k,c\n1,m\n2,n", name="R")
    left = loads_csv("k,a,b\n1,x,p\n2,y,q\n3,x,q", name="L")
    spec = JoinSpec.equi(["k"], ["k"])
    assert fd(["a"], "b") in upstage(JoinContext(left, right, spec))[0]
    assert _tag(left, right, spec, fd(["a"], "b")) == "upstaged-left"
    # a lhs with part of a composite key: the dropped value (1, 3) has one
    # row, which breaks a, k0 -> b against the kept row of (1, 1)
    left = loads_csv("k0,k1,a,b\n1,1,x,p\n1,2,y,q\n2,1,x,q\n1,3,x,q", name="L")
    right = loads_csv("k0,k1,c\n1,1,m\n1,2,n\n2,1,m", name="R")
    spec = JoinSpec.equi(["k0", "k1"], ["k0", "k1"])
    got, _ = upstage(JoinContext(left, right, spec))
    assert fd(["a", "k0"], "b") in got and fd(["k0", "k1"], "b") in got
    assert _tag(left, right, spec, fd(["a", "k0"], "b")) == "upstaged-left"
    assert _tag(left, right, spec, fd(["k0", "k1"], "b")) == "preserved-left"


def test_input_partitions_only_for_a_lhs_missing_a_join_attribute(monkeypatch):
    # tagging a row-subset side builds its input's partitions at most once,
    # and only when a final member tested there lacks one of the side's join
    # attributes; the left side is tried first, and a member preserved there
    # is not tested on the right
    built = []

    def spy(instance):
        built.append(instance)
        return discovery._PartitionCache(instance)

    monkeypatch.setattr(upstage_module, "_PartitionCache", spy)
    fallbacks = 0
    for left, right, spec in _fixture_pairs():
        context = JoinContext(left, right, spec)
        # the row-subset sides: neither padded nor their own input
        subsets = {
            side
            for side, inst, padded in (
                ("left", left, context.pads_left()),
                ("right", right, context.pads_right()),
            )
            if not padded and context.side_subinstance(side) not in (None, inst)
        }
        sides = [
            (side, inst, set(on), {qual: a for a, qual in names.items()})
            for side, inst, on, names in (
                ("left", left, spec.left_on, context.lmap),
                ("right", right, spec.right_on, context.rmap),
            )
            if side != context.dropped_side()
        ]
        built.clear()
        rep = run_pipeline(left, right, spec)
        want = []
        for d in rep.fds:
            for side, inst, on, base in sides:
                if d.rhs not in base or not d.lhs <= base.keys():
                    continue
                lacks = not on <= d.rename(base).lhs
                if side in subsets and lacks and inst not in want:
                    want.append(inst)
                if rep.fds.origins[d] == f"preserved-{side}":
                    break
        assert built == want, spec
        fallbacks += len(want)
    assert fallbacks > 0


def test_preserved_side_of_outer_join_never_upstages():
    left = loads_csv("k,a,b\n1,x,p\n2,x,q\n3,y,p", name="L")
    right = loads_csv("k,c\n1,m\n3,n", name="R")
    spec = JoinSpec.equi(["k"], ["k"], JoinKind.LEFT_OUTER)
    got, _ = upstage(JoinContext(left, right, spec))
    assert got == discover_fds(left)  # left rows all survive a left outer
    assert "upstaged-left" not in _upstaged_tags(left, right, spec)


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
    # every tiny pair, not only the half the other tests take
    for left, right, spec in _fixture_pairs() + tiny_random_pairs()[1::2]:
        # per padded side, the input members that do not hold on its rows
        context = JoinContext(left, right, spec)
        broken = [
            f"{side}: {d}"
            for side, inst, padded in (
                ("left", left, context.pads_left()),
                ("right", right, context.pads_right()),
            )
            if padded
            for d in discover_fds(inst)
            if not holds(context.side_subinstance(side), d)
        ]
        for strategy in violated:
            got = run_pipeline(left, right, spec, strategy=strategy)
            with monkeypatch.context() as patched:
                patched.setattr(pipeline, "upstage", reference_upstage)
                want = run_pipeline(left, right, spec, strategy=strategy)
            assert closure_equal(got.fds, want.fds), (spec, strategy)
            assert got.violated_fds == want.violated_fds == broken, (spec, strategy)
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
            (side, {qual: a for a, qual in names.items()}, discover_fds(inst), sub)
            for side, inst, names in (
                ("left", left, context.lmap),
                ("right", right, context.rmap),
            )
            if (sub := context.side_subinstance(side)) is not None
        ]
        for strategy in ("selective", "sampling", "oracle"):
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
    # each side's mined set is exactly the minimal dependencies of its join
    # rows; on a padded side a smaller lhs can hold on the input and be
    # broken by padding, so a minimal dependency of the side's rows that
    # holds on the input need not be minimal there, and only input members
    # are ever tagged preserved
    for left, right, spec in _fixture_pairs():
        context = JoinContext(left, right, spec)
        got = upstage(context)
        rep = run_pipeline(left, right, spec)
        for side, inst, mined, names in (
            ("left", left, got[0], context.lmap),
            ("right", right, got[1], context.rmap),
        ):
            sub = context.side_subinstance(side)
            if sub is None:
                assert mined == FdSet()
                continue
            assert mined == discover_fds(sub), (spec, side)
            members = discover_fds(inst)
            base = {qual: a for a, qual in names.items()}
            for d in rep.fds:
                if rep.fds.origins[d] == f"preserved-{side}":
                    assert d.rename(base) in members, (spec, side, d)


@pytest.fixture
def mined_inputs(monkeypatch):
    """The names of the tables each `discovery.discover_fds` call mines,
    spied on wherever the package binds it."""
    seen: list[str] = []

    def spy(instance):
        seen.append(instance.name)
        return discover_fds(instance)

    for module in (discovery, context_module):
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
    real = pipeline.upstage

    def lossy(context):
        # a right set that implies no input member of the right table
        return real(context)[0], FdSet()

    monkeypatch.setattr(pipeline, "upstage", lossy)
    with pytest.raises(InternalInvariantError, match="right table no longer holds"):
        run_pipeline(left, right, spec)


def test_each_mined_side_is_searched_once_without_a_known_set(monkeypatch):
    # upstaging mines each side's join rows once, whole: one search per side
    # that is not dropped, handed only that side's partitions, and no input
    # table
    searched = []
    real = discovery._search

    def spy(*args, **kwargs):
        searched.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(discovery, "_search", spy)
    own_inputs = 0
    for left, right, spec in _fixture_pairs():
        context = JoinContext(left, right, spec)
        mined = []
        for side, inst in (("left", left), ("right", right)):
            sub = context.side_subinstance(side)
            if sub is not None:
                own_inputs += sub is inst
                mined.append(((context.side_partitions(side),), {}))
        searched.clear()
        upstage(context)
        assert searched == mined, spec
    assert own_inputs > 0
