import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from conftest import counterexamples_refuted_on_join
from joinfd import discovery
from joinfd.context import JoinContext
from joinfd.discovery import holds
from joinfd.errors import InternalInvariantError
from joinfd.fds import fd
from joinfd.fixtures import FixtureProfile, make_fixture
from joinfd.joins import (
    PADS_LEFT_ATTRS,
    PADS_RIGHT_ATTRS,
    JoinKind,
    JoinSpec,
    join,
    join_attr_directions,
    join_profile,
)
from joinfd.pipeline import run_pipeline
from joinfd.relation import loads_csv

# a natural full outer join pads the right side for the dangling left key
# values null and "None", whose text is the same
PADDING_PROBE = """
import json
from joinfd.context import JoinContext
from joinfd.joins import JoinKind, JoinSpec
from joinfd.pipeline import run_pipeline
from joinfd.relation import Instance

left = Instance.from_rows(
    ["k", "a", "c"],
    [[None, "x", "1"], ["None", "y", "1"], ["1", "z", "2"], ["2", "x", "2"]],
    name="L",
)
right = Instance.from_rows(["k", "b"], [["1", "p"], ["2", "p"], ["3", "q"]], name="R")
spec = JoinSpec(JoinKind.FULL_OUTER, ("k",), ("k",), natural=True)
context = JoinContext(left, right, spec)
report = run_pipeline(left, right, spec)
print(json.dumps([
    [context.profile.values[g] for g in context._side_rows("right")[1]],
    report.counters.candidates_validated,
    report.to_json()["fds"],
]))
"""


def _exhaustive_agreement(left, right, spec):
    ctx = JoinContext(left, right, spec)
    joined = join(left, right, spec)
    names = list(joined.attr_names)
    for rhs in names:
        others = [n for n in names if n != rhs]
        for size in range(len(others) + 1):
            for combo in combinations(others, size):
                cand = fd(combo, rhs)
                valid = ctx.check_fd(cand)
                assert valid == holds(joined, cand), cand
                # a rejection keeps a counterexample that refutes it
                mask = sum(ctx.join_bits[a] for a in combo)
                assert ctx.refutes(mask, rhs) is not valid, cand
    assert ctx.counters.partial_join_rows == 0  # streaming stores nothing
    return ctx


def test_streaming_check_matches_materialized_join_natural():
    left = loads_csv("k,a\n1,x\n2,y\n9,z", name="L")
    right = loads_csv("k,b\n1,p\n1,q\n8,r", name="R")
    for kind in (
        JoinKind.INNER,
        JoinKind.LEFT_OUTER,
        JoinKind.RIGHT_OUTER,
        JoinKind.FULL_OUTER,
    ):
        _exhaustive_agreement(left, right, JoinSpec.natural_join(left, right, kind))


def test_streaming_check_matches_materialized_join_equi():
    left = loads_csv("x,a\n1,p\n1,q\n2,p\n7,r", name="L")
    right = loads_csv("y,b,c\n1,m,0\n2,m,1\n2,n,1\n8,n,0", name="R")
    for kind in (
        JoinKind.INNER,
        JoinKind.LEFT_OUTER,
        JoinKind.RIGHT_OUTER,
        JoinKind.FULL_OUTER,
    ):
        _exhaustive_agreement(left, right, JoinSpec.equi(["x"], ["y"], kind))


def test_streaming_check_with_null_data():
    left = loads_csv("k,a\n1,\n2,y\n,z", name="L", null_tokens=[""])
    right = loads_csv("k,b\n1,p\n,q\n9,r", name="R", null_tokens=[""])
    for kind in (JoinKind.INNER, JoinKind.LEFT_OUTER, JoinKind.FULL_OUTER):
        _exhaustive_agreement(left, right, JoinSpec.equi(["k"], ["k"], kind))


def _outer_fixture_pairs():
    # classes of 24-row sides span many join-value groups, which the tiny
    # pairs of the differential test rarely produce; odd seeds join
    # naturally, merging the key columns
    kinds = (JoinKind.LEFT_OUTER, JoinKind.RIGHT_OUTER, JoinKind.FULL_OUTER)
    for seed in range(30):
        profile = FixtureProfile(
            left_rows=24,
            right_rows=24,
            left_attrs=4,
            right_attrs=4,
            dangling_fraction=0.3,
            duplicate_fraction=0.3,
            domain_low=3,
            domain_high=12,
            op=kinds[seed % len(kinds)],
        )
        left, right, spec = make_fixture(profile, seed)
        if seed % 2:
            spec = JoinSpec.natural_join(left, right, spec.kind)
        yield left, right, spec


def test_streaming_check_matches_materialized_join_at_fixture_scale():
    for left, right, spec in _outer_fixture_pairs():
        _exhaustive_agreement(left, right, spec)


def test_streaming_check_matches_materialized_join_on_wide_two_valued_sides():
    # two-valued attributes, 6 and 4 a side: most π_X classes span many
    # join-value groups, so a group meets others through several classes,
    # each a token of the validator's links; odd seeds join naturally,
    # merging the key columns
    tokens_per_group = 0
    for seed in range(4):
        for kind in (JoinKind.INNER, JoinKind.FULL_OUTER):
            profile = FixtureProfile(
                left_rows=40,
                right_rows=40,
                left_attrs=6,
                right_attrs=4,
                dangling_fraction=0.3,
                duplicate_fraction=0.3,
                domain_low=2,
                domain_high=2,
                op=kind,
            )
            left, right, spec = make_fixture(profile, seed)
            if seed % 2:
                spec = JoinSpec.natural_join(left, right, kind)
            ctx = _exhaustive_agreement(left, right, spec)
            for (_, x), (tokens, _) in ctx._links_of.items():
                if x:
                    tokens_per_group = max(tokens_per_group, *map(len, tokens))
    assert tokens_per_group >= 3


def test_counterexamples_are_false_on_outer_fixture_joins(recorded_contexts):
    agree_sets = refuted = 0
    for left, right, spec in _outer_fixture_pairs():
        run_pipeline(left, right, spec, strategy="selective")
    for context in recorded_contexts:
        kept, hits = counterexamples_refuted_on_join(context)
        agree_sets += kept
        refuted += hits
    assert len(recorded_contexts) == 30
    assert agree_sets > 0 and refuted > 0


def test_each_dangling_value_pads_its_own_row():
    # two right rows dangle; one shared all-null padding row would put both
    # in one group and hide that L.a (null on both) meets p and q
    left = loads_csv("k,a\n9,x", name="L")
    right = loads_csv("k,b\n1,p\n2,q", name="R")
    ctx = JoinContext(left, right, JoinSpec.equi(["k"], ["k"], JoinKind.RIGHT_OUTER))
    assert ctx.check_fd(fd(["L.a"], "R.b")) is False
    assert ctx.side_subinstance("left").row_count == 2


def test_covering_carrier_is_reused():
    left = loads_csv("k,a,b\n1,x,p\n2,y,q", name="L")
    right = loads_csv("k,c\n1,m\n2,n", name="R")
    ctx = JoinContext(left, right, JoinSpec.equi(["k"], ["k"]))
    wide = ctx.partial({"a", "b"}, {"c"})
    assert ctx.counters.partial_joins_built == 1
    narrow = ctx.partial({"a"}, {"c"})
    assert ctx.counters.partial_joins_built == 1  # served by the wide carrier
    assert narrow is wide


def test_side_subinstances_reflect_the_operator():
    left = loads_csv("k,a\n1,x\n9,z", name="L")
    right = loads_csv("k,b\n1,p\n8,r", name="R")
    inner = JoinContext(left, right, JoinSpec.equi(["k"], ["k"]))
    assert inner.side_subinstance("left").row_count == 1
    assert inner.side_subinstance("right").row_count == 1
    louter = JoinContext(left, right, JoinSpec.equi(["k"], ["k"], JoinKind.LEFT_OUTER))
    assert louter.side_subinstance("left").row_count == 2  # preserved
    # right side: the dangling right row goes, one null padding row comes
    assert louter.side_subinstance("right").row_count == 2
    lsemi = JoinContext(left, right, JoinSpec.equi(["k"], ["k"], JoinKind.LEFT_SEMI))
    assert lsemi.side_subinstance("right") is None


def test_natural_padding_rows_carry_the_dangling_join_values():
    left = loads_csv("k,a\n1,x\n2,y\n,z", name="L", null_tokens=[""])
    right = loads_csv("k,b\n1,p\n8,q", name="R")
    spec = JoinSpec.natural_join(left, right, JoinKind.FULL_OUTER)
    ctx = JoinContext(left, right, spec)
    sub = ctx.side_subinstance("right")
    # both right rows, then one padding row per dangling left value (2, null)
    assert sub.raw_rows() == [("1", "p"), ("8", "q"), ("2", None), (None, None)]
    assert sub.columns[1] == right.columns[1] + (-1, -1)  # existing codes kept
    lsub = ctx.side_subinstance("left")
    assert lsub.raw_rows()[-1] == ("8", None)


def test_padding_order_does_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    runs = []
    for hash_seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", PADDING_PROBE],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        runs.append(json.loads(done.stdout))
    assert runs[0][0] == [["None"], [None]]
    assert runs[0] == runs[1] == runs[2]


def test_validator_builds_no_more_partitions_than_mining_needs(monkeypatch):
    # tall sides: the validator reads side J's partition of E and side I's
    # of X from the cache that upstaging and mining fill, so it adds no
    # partition builds; nor does upstaging test a member whose lhs holds the
    # join key on partitions of the input
    refined = []
    real = discovery.refine

    def counted(*args):
        refined[-1] += 1
        return real(*args)

    monkeypatch.setattr(discovery, "refine", counted)
    profile = FixtureProfile(
        left_rows=400, right_rows=400, left_attrs=3, right_attrs=3,
        dangling_fraction=0.3, duplicate_fraction=0.3, domain_low=3, domain_high=200,
    )
    for seed in range(6):
        refined.append(0)
        run_pipeline(*make_fixture(profile, seed), strategy="selective")
    assert all(n <= bound for n, bound in zip(refined, [12, 12, 12, 12, 12, 12]))


def test_a_row_outside_every_group_is_an_error():
    left = loads_csv("k,a\n1,x\n2,y", name="L")
    right = loads_csv("k,b\n1,p\n2,q", name="R")
    ctx = JoinContext(left, right, JoinSpec.equi(["k"], ["k"], JoinKind.LEFT_OUTER))
    # every left row survives, but the profile gives the row of value 2 an
    # id past every join value
    ctx.profile.left_ids[1] = len(ctx.profile.values)
    with pytest.raises(InternalInvariantError):
        ctx._row_groups("left")


def test_directions_skip_the_scan_on_joins_that_pad_neither_side():
    for kind in JoinKind:
        prof = FixtureProfile(
            left_rows=12, right_rows=12, left_attrs=3, right_attrs=3,
            dangling_fraction=0.3, duplicate_fraction=0.3, op=kind,
        )
        left, right, spec = make_fixture(prof, seed=3)
        got = JoinContext(left, right, spec).directions()
        if kind in PADS_LEFT_ATTRS or kind in PADS_RIGHT_ATTRS:
            want = join_attr_directions(spec, join_profile(left, right, spec))
            assert got == want, kind
        else:
            # a profile without attributes: a scan would fail on it
            assert join_attr_directions(spec, object()) == (True, True)
            assert got == (True, True), kind


def test_each_side_layout_is_worked_out_once(monkeypatch):
    sides = []
    layout = JoinContext._layout

    def spy(self, side):
        sides.append(side)
        return layout(self, side)

    monkeypatch.setattr(JoinContext, "_layout", spy)
    prof = FixtureProfile(
        left_rows=40, right_rows=40, left_attrs=3, right_attrs=3,
        dangling_fraction=0.3, duplicate_fraction=0.3,
    )
    left, right, spec = make_fixture(prof, seed=6)
    run_pipeline(left, right, spec, strategy="selective")
    assert sorted(sides) == ["left", "right"]
