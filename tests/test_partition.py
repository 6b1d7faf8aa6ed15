import random

from itertools import permutations

import pytest

from joinfd.fds import fd
from joinfd.discovery import holds
from joinfd.partition import (
    build_partition,
    g3_error,
    refine,
    violating_tuples,
)
from joinfd.relation import loads_csv, take_rows

from conftest import brute_force_min_removals, random_instance


def test_key_column_strips_to_nothing():
    inst = loads_csv("a\n1\n2\n3\n4")
    assert build_partition(inst, ["a"]).classes == ()


def test_constant_column_single_class():
    inst = loads_csv("a\nx\nx\nx\nx")
    assert build_partition(inst, ["a"]).classes == ((0, 1, 2, 3),)


def test_proof_table_join_column_class():
    inst = loads_csv("X,A\n0,0\n1,0\n1,1\n2,2")
    assert build_partition(inst, ["X"]).classes == ((1, 2),)


def test_empty_attr_set_is_one_big_class():
    inst = loads_csv("a\n1\n2\n3")
    assert build_partition(inst, []).classes == ((0, 1, 2),)


def _grouping(inst, attrs):
    """Classes of size >= 2 under `attrs`, by grouping decoded rows directly."""
    idx = [inst.attr_names.index(a) for a in attrs]
    groups = {}
    for r, row in enumerate(inst.raw_rows()):
        groups.setdefault(tuple(row[i] for i in idx), []).append(r)
    return tuple(
        tuple(g) for g in sorted(groups.values(), key=lambda g: g[0]) if len(g) >= 2
    )


def test_refine_idempotent():
    inst = loads_csv("a,b\nx,1\nx,2\ny,1\ny,2\nx,1")
    p = build_partition(inst, ["a"])
    assert refine(p, inst, "a").classes == p.classes


def test_refine_to_all_singletons_is_empty():
    inst = loads_csv("a,b\nx,1\nx,2\ny,3")
    p = build_partition(inst, ["a"])
    assert refine(p, inst, "b").classes == ()


def test_refine_equals_grouping_on_proof_table():
    right = loads_csv("Y,B,C\n0,0,0\n1,0,0\n1,1,1\n2,1,0")
    refined = refine(build_partition(right, ["B"]), right, "C")
    assert refined.classes == _grouping(right, ["B", "C"]) == ((0, 1),)
    assert refined.attrs == {"B", "C"}


def test_refine_matches_grouping_randomized():
    rng = random.Random(7)
    for _ in range(1000):
        inst = random_instance(
            rng, n_attrs=3, n_rows=rng.randint(2, 8), null_share=rng.choice([0, 0.3])
        )
        p = build_partition(inst, ["c0"])
        assert refine(p, inst, "c1").classes == _grouping(inst, ["c0", "c1"])
        assert refine(refine(p, inst, "c2"), inst, "c1").classes == _grouping(
            inst, ["c0", "c1", "c2"]
        )


def test_refine_matches_grouping_in_every_attribute_order():
    # domains of one to a few values give all-equal classes, two-row
    # classes and rows that end up singletons, with and without nulls
    rng = random.Random(31)
    seen = {"two-row": 0, "all-equal": 0, "singleton": 0, "null": 0}
    for _ in range(150):
        inst = random_instance(
            rng,
            n_attrs=rng.randint(1, 4),
            n_rows=rng.randint(2, 12),
            null_share=rng.choice([0, 0.3]),
        )
        seen["null"] += any(v is None for row in inst.raw_rows() for v in row)
        for order in permutations(inst.attr_names):
            part = build_partition(inst, [])
            assert part.size == inst.row_count
            for i, attr in enumerate(order):
                col = inst.columns[inst.ordinal(attr)]
                for cls in part.classes:
                    seen["two-row"] += len(cls) == 2
                    seen["all-equal"] += len(cls) > 2 and len({col[t] for t in cls}) == 1
                part = refine(part, inst, attr)
                want = _grouping(inst, order[: i + 1])
                assert part.classes == want
                assert part.size == sum(map(len, want))
                assert part.attrs == set(order[: i + 1])
            seen["singleton"] += part.size < inst.row_count
    assert all(seen.values()), seen


def test_partition_of_fewer_than_two_rows_is_empty():
    inst = loads_csv("a,b\nx,1")
    for rows in ([], [0]):
        part = build_partition(take_rows(inst, rows), ["a", "b"])
        assert part.classes == () and part.size == 0


def test_error_zero_iff_dependency_holds():
    rng = random.Random(13)
    for _ in range(60):
        inst = random_instance(rng, n_attrs=3)
        d = fd(["c0"], "c2")
        assert (g3_error(inst, d.lhs, d.rhs) == 0) == holds(inst, d)


def test_error_half_when_one_of_two_rows_must_go():
    inst = loads_csv("x,y\na,1\na,2")
    assert brute_force_min_removals(inst, ["x"], "y") == 1
    assert g3_error(inst, ["x"], "y") == 0.5


def test_degree_one_of_five_rows():
    # one violating row out of five: error 1/5, like a flag column almost
    # determining a date column
    inst = loads_csv("flag,date\n1,d1\n1,d1\n0,\n0,\n0,d9", null_tokens=[""])
    assert g3_error(inst, ["flag"], "date") == pytest.approx(0.2)
    assert len(violating_tuples(inst, fd(["flag"], "date")).tuple_ids) == 1


def test_empty_instance_error_is_zero():
    inst = loads_csv("a,b\n1,2")
    empty = take_rows(inst, [])
    assert g3_error(empty, ["a"], "b") == 0.0


def test_violators_empty_when_dependency_holds():
    inst = loads_csv("a,b\nx,1\nx,1\ny,2")
    assert violating_tuples(inst, fd(["a"], "b")).tuple_ids == frozenset()


def test_minority_row_is_the_violator():
    inst = loads_csv("x,y\na,1\na,1\na,2")
    assert violating_tuples(inst, fd(["x"], "y")).tuple_ids == {2}


def test_tie_breaks_toward_smallest_row_id():
    inst = loads_csv("x,y\na,1\na,2")
    assert violating_tuples(inst, fd(["x"], "y")).tuple_ids == {1}


def test_violation_count_matches_error_exactly():
    rng = random.Random(17)
    for _ in range(80):
        inst = random_instance(rng, n_attrs=3)
        d = fd(["c1"], "c0")
        v = violating_tuples(inst, d)
        assert len(v.tuple_ids) == g3_error(inst, d.lhs, d.rhs) * inst.row_count


def test_removing_violators_makes_dependency_hold():
    rng = random.Random(19)
    for _ in range(80):
        inst = random_instance(rng, n_attrs=3)
        d = fd(["c0", "c1"], "c2")
        v = violating_tuples(inst, d)
        kept = [r for r in range(inst.row_count) if r not in v.tuple_ids]
        assert holds(take_rows(inst, kept), d)


def test_error_matches_exhaustive_minimum_removals():
    rng = random.Random(23)
    for _ in range(30):
        inst = random_instance(rng, n_attrs=3, n_rows=rng.randint(2, 7))
        want = brute_force_min_removals(inst, ["c0"], "c1")
        assert g3_error(inst, ["c0"], "c1") * inst.row_count == want
