import random

import pytest

from joinfd.errors import InternalInvariantError
from joinfd.fds import (
    FdSet,
    FunctionalDependency,
    attribute_closure,
    closure_equal,
    fd,
    implies,
    minimal_cover,
    remove_implied,
)

from conftest import model_implies, reference_closure, reference_remove_implied


def test_trivial_dependency_rejected():
    with pytest.raises(InternalInvariantError):
        fd(["a", "b"], "a")


def test_transitivity():
    base = [fd(["A"], "B"), fd(["B"], "C")]
    assert implies(base, fd(["A"], "C"))


def test_no_converse():
    assert not implies([fd(["A"], "B")], fd(["B"], "A"))


def test_augmentation_not_reversible():
    assert not implies([fd(["A", "B"], "C")], fd(["A"], "C"))


def test_empty_lhs_rules_always_fire():
    base = [fd([], "A"), fd(["A"], "B")]
    assert implies(base, fd([], "B"))
    assert attribute_closure([], base) == {"A", "B"}


def test_cover_deduplicates():
    assert minimal_cover([fd(["A"], "B"), fd(["A"], "B")]) == {fd(["A"], "B")}


def test_cover_drops_implied_member():
    got = minimal_cover([fd(["A"], "B"), fd(["A", "B"], "C"), fd(["A"], "C")])
    assert got == {fd(["A"], "B"), fd(["A"], "C")}


def test_cover_reduces_left_sides():
    got = minimal_cover([fd(["A"], "B"), fd(["A", "B"], "C")])
    assert got == {fd(["A"], "B"), fd(["A"], "C")}


def _random_fd_set(rng, attrs):
    out = []
    for _ in range(rng.randint(1, 6)):
        lhs = frozenset(a for a in attrs if rng.random() < 0.4)
        free = [a for a in attrs if a not in lhs]
        if not free:
            lhs = lhs - {attrs[0]}
            free = [attrs[0]]
        out.append(FunctionalDependency(lhs, rng.choice(free)))
    return out


def test_cover_closure_equals_input_closure():
    rng = random.Random(3)
    attrs = ["A", "B", "C", "D"]
    for _ in range(200):
        fds = _random_fd_set(rng, attrs)
        cover = minimal_cover(fds)
        assert closure_equal(cover, fds)


def test_cover_is_irredundant():
    rng = random.Random(4)
    attrs = ["A", "B", "C", "D"]
    for _ in range(100):
        cover = list(minimal_cover(_random_fd_set(rng, attrs)))
        for d in cover:
            rest = [e for e in cover if e != d]
            assert not implies(rest, d)


def test_implies_agrees_with_model_theoretic_oracle():
    rng = random.Random(9)
    attrs = ["A", "B", "C", "D"]
    for _ in range(150):
        base = _random_fd_set(rng, attrs)
        cand_lhs = frozenset(a for a in attrs[1:] if rng.random() < 0.5)
        cand = FunctionalDependency(cand_lhs, attrs[0])
        assert implies(base, cand) == model_implies(base, cand, attrs)


def test_remove_implied_keeps_closure():
    rng = random.Random(10)
    attrs = ["A", "B", "C"]
    for _ in range(100):
        fds = _random_fd_set(rng, attrs)
        assert closure_equal(remove_implied(fds), fds)


def test_remove_implied_returns_exactly_the_reference_set():
    rng = random.Random(11)
    attrs = ["A", "B", "C", "D", "E"]
    for _ in range(300):
        fds = _random_fd_set(rng, attrs) + _random_fd_set(rng, attrs)
        assert remove_implied(fds) == reference_remove_implied(fds)


def test_closure_matches_reference_and_grows_with_add():
    rng = random.Random(12)
    attrs = ["A", "B", "C", "D", "E"]
    for _ in range(200):
        fds = _random_fd_set(rng, attrs)
        start = [a for a in attrs if rng.random() < 0.3]
        pool = FdSet(fds[:1])
        assert attribute_closure(start, pool) == reference_closure(start, fds[:1])
        for d in fds[1:]:
            pool.add(d)  # extends the rules compiled above
        assert attribute_closure(start, pool) == reference_closure(start, fds)
        assert attribute_closure(start, fds) == reference_closure(start, fds)


def test_fdset_iteration_is_canonical():
    s = FdSet([fd(["B"], "C"), fd(["A"], "B"), fd(["A", "C"], "B")])
    assert [str(d) for d in s] == ["A -> B", "A,C -> B", "B -> C"]


def test_fdset_origin_tags_survive_union():
    a = FdSet()
    a.add(fd(["A"], "B"), "mined")
    b = FdSet()
    b.add(fd(["B"], "C"), "inferred")
    merged = a.union(b)
    assert merged.origins[fd(["A"], "B")] == "mined"
    assert merged.origins[fd(["B"], "C")] == "inferred"


def test_serialization_shape():
    doc = fd(["b", "a"], "c").to_json(origin="mined")
    assert doc == {"lhs": ["a", "b"], "rhs": "c", "origin": "mined"}
