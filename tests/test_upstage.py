import random

import pytest

from joinfd.context import JoinContext
from joinfd.discovery import discover_fds, holds
from joinfd.errors import InputError
from joinfd.fds import Afd, fd, implies
from joinfd.fixtures import FixtureProfile, make_fixture, planted_afd
from joinfd.joins import JoinKind, JoinSpec, join, left_name_map
from joinfd.relation import loads_csv
from joinfd.upstage import upstage


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
    afd = Afd(fd(["flag"], "date"), error=0.2, degree=1)
    got = upstage(JoinContext(left, right, spec), left_afds=[afd])
    assert fd(["flag"], "date") in got.left_upstaged
    joined = join(left, right, spec)
    assert holds(joined, fd(["flag"], "date").rename(left_name_map(left, right, spec)))


def test_surviving_violator_blocks_promotion():
    left = loads_csv(
        "k,flag,date\np1,0,d1\np2,0,d1\np3,1,d2\np4,1,d2\np5,1,dX", name="L"
    )
    right = loads_csv("k,ward\np1,w\np2,w\np3,w\np4,w\np5,w", name="R")
    afd = Afd(fd(["flag"], "date"), error=0.2, degree=1)
    got = upstage(JoinContext(left, right, JoinSpec.equi(["k"], ["k"])), left_afds=[afd])
    assert fd(["flag"], "date") not in got.left_upstaged


def test_exact_input_rejected_by_afd_path():
    left = loads_csv("k,a,b\n1,x,p\n2,y,q", name="L")
    right = loads_csv("k\n1", name="R")
    exact_as_afd = Afd(fd(["a"], "b"), error=0.5, degree=1)
    with pytest.raises(InputError, match="exact"):
        upstage(
            JoinContext(left, right, JoinSpec.equi(["k"], ["k"])),
            left_afds=[exact_as_afd],
        )


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
        got = upstage(JoinContext(left, right, spec), left_afds=[afd])
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
        got = upstage(JoinContext(left, right, spec))
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
    # every promotable approximate dependency is also found by rediscovery
    for seed in range(20):
        prof = FixtureProfile(
            left_rows=12, right_rows=12, left_attrs=3, right_attrs=2,
            dangling_fraction=0.25, planted_afd_degree=1, upstage_positive=True,
        )
        left, right, spec = make_fixture(prof, seed=seed)
        afd = planted_afd(prof)
        exact, _ = discover_fds(left)
        via_afds = upstage(JoinContext(left, right, spec), left_afds=[afd])
        via_discovery = upstage(JoinContext(left, right, spec), left_fds=exact)
        pool = list(via_discovery.left_upstaged) + list(exact)
        for d in via_afds.left_upstaged:
            assert implies(pool, d)


def test_preserved_side_of_outer_join_never_upstages():
    left = loads_csv("k,a,b\n1,x,p\n2,x,q\n3,y,p", name="L")
    right = loads_csv("k,c\n1,m\n3,n", name="R")
    spec = JoinSpec.equi(["k"], ["k"], JoinKind.LEFT_OUTER)
    got = upstage(JoinContext(left, right, spec))
    assert len(got.left_upstaged) == 0  # left rows all survive a left outer
