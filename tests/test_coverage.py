import random
from fractions import Fraction

from joinfd.fixtures import FixtureProfile, make_fixture
from joinfd.joins import JoinKind, JoinSpec, coverage, join
from joinfd.pipeline import run_pipeline
from joinfd.relation import loads_csv

from conftest import random_instance


def test_bijective_key_join_covers_exactly_one():
    left = loads_csv("k,a\n1,x\n2,y\n3,z", name="L")
    right = loads_csv("k,b\n1,p\n2,q\n3,r", name="R")
    got = coverage(left, right, JoinSpec.equi(["k"], ["k"]))
    assert got.coverage == Fraction(1)
    assert got.cov_left == got.cov_right == Fraction(1)


def test_disjoint_join_values_cover_zero():
    left = loads_csv("k,a\n1,x", name="L")
    right = loads_csv("k,b\n2,p", name="R")
    got = coverage(left, right, JoinSpec.equi(["k"], ["k"]))
    assert got.coverage == Fraction(0)


def test_proof_tables_cover_four_thirds(pair_with_join_only_fd):
    left, right, spec = pair_with_join_only_fd
    got = coverage(left, right, spec)
    assert got.cov_left == Fraction(4, 3)
    assert got.cov_right == Fraction(4, 3)
    assert got.coverage == Fraction(4, 3)


def test_empty_side_covers_zero():
    left = loads_csv("k\n1", name="L")
    right = loads_csv("k\n1", name="R")
    from joinfd.relation import take_rows

    got = coverage(take_rows(left, []), right, JoinSpec.equi(["k"], ["k"]))
    assert got.cov_left == Fraction(0)
    assert got.coverage == Fraction(0)


def test_zero_coverage_iff_empty_join():
    rng = random.Random(41)
    for _ in range(40):
        base = random_instance(rng, n_attrs=2, n_rows=rng.randint(1, 8))
        left = loads_csv(
            "k,a\n" + "\n".join(f"j{rng.randint(0,5)},{r[0]}" for r in base.raw_rows()),
            name="L",
        )
        right = loads_csv(
            "k,b\n" + "\n".join(f"j{rng.randint(0,5)},{r[1]}" for r in base.raw_rows()),
            name="R",
        )
        spec = JoinSpec.equi(["k"], ["k"])
        got = coverage(left, right, spec)
        assert (got.coverage == 0) == (join(left, right, spec).row_count == 0)


def test_matches_direct_evaluation_on_materialized_join():
    rng = random.Random(42)
    for _ in range(30):
        left = loads_csv(
            "k,a\n" + "\n".join(f"j{rng.randint(0,4)},x{rng.randint(0,2)}" for _ in range(rng.randint(1, 10))),
            name="L",
        )
        right = loads_csv(
            "k,b\n" + "\n".join(f"j{rng.randint(0,4)},y{rng.randint(0,2)}" for _ in range(rng.randint(1, 10))),
            name="R",
        )
        spec = JoinSpec.equi(["k"], ["k"])
        joined = join(left, right, spec)
        join_keys = [row[0] for row in joined.raw_rows()]
        # per-value ratios straight from the definitions
        left_keys = [row[0] for row in left.raw_rows()]
        right_keys = [row[0] for row in right.raw_rows()]
        expect_left = (
            sum(
                Fraction(join_keys.count(v), left_keys.count(v))
                for v in set(left_keys)
            )
            / len(set(left_keys))
            if left_keys
            else Fraction(0)
        )
        expect_right = (
            sum(
                Fraction(join_keys.count(v), right_keys.count(v))
                for v in set(right_keys)
            )
            / len(set(right_keys))
            if right_keys
            else Fraction(0)
        )
        got = coverage(left, right, spec)
        assert got.cov_left == expect_left
        assert got.cov_right == expect_right
        assert got.coverage == (expect_left + expect_right) / 2


def test_report_serializes_exact_fractions(pair_with_join_only_fd):
    left, right, spec = pair_with_join_only_fd
    doc = coverage(left, right, spec).to_json()
    assert doc["exact"] == "4/3"
    assert abs(doc["coverage"] - 4 / 3) < 1e-12
    assert doc["left"]["per_value"][1]["ratio"] == 2.0  # value "1" joins 4/2


def test_outer_operator_uses_inner_semantics():
    left = loads_csv("k,a\n1,x\n9,z", name="L")
    right = loads_csv("k,b\n1,p", name="R")
    inner = coverage(left, right, JoinSpec.equi(["k"], ["k"], JoinKind.INNER))
    outer = coverage(left, right, JoinSpec.equi(["k"], ["k"], JoinKind.FULL_OUTER))
    assert inner.coverage == outer.coverage


def test_pipeline_report_renders_the_coverage_of_its_join():
    pairs = [
        make_fixture(
            FixtureProfile(
                left_rows=12, right_rows=10, dangling_fraction=0.3,
                duplicate_fraction=0.3, op=list(JoinKind)[seed % 6],
            ),
            seed=seed,
        )
        for seed in range(12)
    ]
    # an empty join takes the vacuous return
    pairs.append(
        (loads_csv("k,a\n1,x", name="L"), loads_csv("k,b\n2,p", name="R"),
         JoinSpec.equi(["k"], ["k"]))
    )
    for strategy in ("selective", "sampling", "oracle"):
        for left, right, spec in pairs:
            got = run_pipeline(left, right, spec, strategy=strategy).coverage
            want = coverage(left, right, spec).to_json()
            assert got.to_json() == want
            assert want["left"]["per_value"] and want["right"]["per_value"]
