import random

from itertools import permutations

from joinfd.fds import fd
from joinfd.discovery import _PartitionCache, holds
from joinfd.partition import build_partition, refine
from joinfd.relation import loads_csv, take_rows

from conftest import brute_force_violations, random_instance


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


def _cache_holds(inst, lhs, rhs):
    """The exact test of lhs -> rhs, read off the partition of lhs."""
    cache = _PartitionCache(inst)
    return cache.holds(cache.mask(lhs), inst.ordinal(rhs))


def test_error_zero_iff_dependency_holds():
    rng = random.Random(13)
    for _ in range(60):
        inst = random_instance(rng, n_attrs=3)
        d = fd(["c0"], "c2")
        want = holds(inst, d)
        assert (brute_force_violations(inst, d.lhs, d.rhs) == 0) == want
        assert _cache_holds(inst, d.lhs, d.rhs) == want


def test_error_half_when_one_of_two_rows_must_go():
    inst = loads_csv("x,y\na,1\na,2")
    assert brute_force_violations(inst, ["x"], "y") == 1
    assert not _cache_holds(inst, ["x"], "y")
    for kept in ([0], [1]):
        assert _cache_holds(take_rows(inst, kept), ["x"], "y")


def test_degree_one_of_five_rows():
    # one violating row out of five, like a flag column almost determining
    # a date column
    inst = loads_csv("flag,date\n1,d1\n1,d1\n0,\n0,\n0,d9", null_tokens=[""])
    assert brute_force_violations(inst, ["flag"], "date") == 1
    assert not _cache_holds(inst, ["flag"], "date")
    assert _cache_holds(take_rows(inst, range(4)), ["flag"], "date")


def test_empty_instance_error_is_zero():
    inst = loads_csv("a,b\n1,2")
    empty = take_rows(inst, [])
    assert brute_force_violations(empty, ["a"], "b") == 0
    assert _cache_holds(empty, ["a"], "b")


def test_violators_empty_when_dependency_holds():
    inst = loads_csv("a,b\nx,1\nx,1\ny,2")
    assert brute_force_violations(inst, ["a"], "b") == 0
    assert _cache_holds(inst, ["a"], "b")


def test_minority_row_is_the_violator():
    inst = loads_csv("x,y\na,1\na,1\na,2")
    assert brute_force_violations(inst, ["x"], "y") == 1
    assert _cache_holds(take_rows(inst, [0, 1]), ["x"], "y")
    assert not _cache_holds(take_rows(inst, [0, 2]), ["x"], "y")


def test_removing_violators_makes_dependency_hold():
    # keeping, per lhs group, only the rows of its most frequent rhs value
    # drops as many rows as the g3 count and leaves a dependency that holds
    rng = random.Random(19)
    for _ in range(80):
        inst = random_instance(rng, n_attrs=3, n_rows=rng.randint(2, 7))
        groups = {}
        for r, (c0, c1, c2) in enumerate(inst.raw_rows()):
            groups.setdefault((c0, c1), {}).setdefault(c2, []).append(r)
        kept = sorted(
            r for by_rhs in groups.values() for r in max(by_rhs.values(), key=len)
        )
        want = brute_force_violations(inst, ["c0", "c1"], "c2")
        assert inst.row_count - len(kept) == want
        assert _cache_holds(inst, ["c0", "c1"], "c2") == (want == 0)
        assert _cache_holds(take_rows(inst, kept), ["c0", "c1"], "c2")
