import random

from itertools import combinations

from joinfd import discovery
from joinfd.discovery import (
    _next_level,
    _PartitionCache,
    _search,
    discover_fds,
    discover_new_fds,
    holds,
    lattice_bits,
    walk,
)
from joinfd.fds import FdSet, fd, mask_bits
from joinfd.fixtures import FixtureProfile, make_fixture
from joinfd.joins import join
from joinfd.relation import loads_csv, take_rows

from conftest import (
    brute_force_afds,
    brute_force_fds,
    model_implies,
    random_instance,
    reference_next_level,
    reference_search,
)
from test_partition import _grouping


def test_holds_is_vacuous_on_tiny_instances():
    one = loads_csv("a,b\n1,2")
    assert holds(one, fd(["a"], "b"))
    assert holds(take_rows(one, []), fd(["a"], "b"))


def test_holds_on_proof_table():
    right = loads_csv("Y,B,C\n0,0,0\n1,0,0\n1,1,1\n2,1,0")
    assert holds(right, fd(["Y", "B"], "C"))
    assert not holds(right, fd(["B"], "C"))


def test_holds_on_joined_proof_tables():
    joined = loads_csv(
        "X,A,B,C\n0,0,0,0\n1,0,0,0\n1,0,1,1\n1,1,0,0\n1,1,1,1\n2,2,1,0"
    )
    assert holds(joined, fd(["A", "B"], "C"))


def test_empty_lhs_means_constant_column():
    inst = loads_csv("a,b\nx,1\nx,2")
    assert holds(inst, fd([], "a"))
    assert not holds(inst, fd([], "b"))


def test_key_determines_everything():
    inst = loads_csv("k,a,b\n1,x,p\n2,x,q\n3,y,p\n4,z,z")
    exact, _ = discover_fds(inst)
    for other in ("a", "b"):
        assert fd(["k"], other) in exact


def test_proof_table_exact_set():
    right = loads_csv("Y,B,C\n0,0,0\n1,0,0\n1,1,1\n2,1,0")
    exact, afds = discover_fds(right, 0.0)
    assert exact == {fd(["Y", "B"], "C"), fd(["Y", "C"], "B")}
    assert afds == []


def test_matches_brute_force_enumeration():
    # widths up to 7 reach levels where partitions refine cached parents
    rng = random.Random(21)
    for i in range(60):
        inst = random_instance(
            rng,
            n_attrs=2 + i % 6,
            n_rows=rng.randint(2, 30),
            null_share=rng.choice([0.0, 0.25]),
        )
        exact, _ = discover_fds(inst)
        assert exact == brute_force_fds(inst)


def test_new_fds_complete_and_minimal_against_brute_force():
    rng = random.Random(27)
    for _ in range(60):
        inst = random_instance(
            rng,
            n_attrs=rng.randint(2, 6),
            n_rows=rng.randint(2, 20),
            null_share=rng.choice([0.0, 0.25]),
        )
        names = inst.attr_names
        truth = list(brute_force_fds(inst))
        new = discover_new_fds(inst)
        for d in truth:
            assert model_implies(list(new), d, names)
        for d in new:
            assert holds(inst, d)
            for a in d.lhs:
                assert not holds(inst, fd(d.lhs - {a}, d.rhs))


def test_new_fds_skip_what_the_same_level_found_implies():
    # the reference search that `conftest.reference_upstage` prunes with a
    # known set: c -> b holds, but known c -> a and the a -> b found just
    # before it imply it
    inst = loads_csv("a,b,c\n1,x,p\n1,x,q\n2,y,r")
    new, _ = reference_search(_PartitionCache(inst), FdSet([fd(["c"], "a")]))
    assert new == {fd(["a"], "b"), fd(["b"], "a")}


def test_afds_match_brute_force_budget_definition():
    rng = random.Random(28)
    for _ in range(150):
        inst = random_instance(
            rng,
            n_attrs=rng.randint(2, 5),
            n_rows=rng.randint(1, 20),
            null_share=rng.choice([0.0, 0.0, 0.3]),
        )
        epsilon = rng.choice([0.1, 0.2, 0.3, 0.5])
        _, afds = discover_fds(inst, epsilon)
        got = {a.fd: a.degree for a in afds}
        assert got == brute_force_afds(inst, epsilon)
        for a in afds:
            assert a.error == a.degree / inst.row_count


def test_soundness_and_minimality():
    rng = random.Random(22)
    for _ in range(40):
        inst = random_instance(rng, n_attrs=4)
        exact, _ = discover_fds(inst)
        for d in exact:
            assert holds(inst, d)
            for a in d.lhs:
                assert not holds(inst, fd(d.lhs - {a}, d.rhs))


def test_afd_degree_one_in_five_rows():
    inst = loads_csv("flag,date\n1,d1\n1,d1\n0,d7\n0,d7\n0,d9")
    exact, afds = discover_fds(inst, epsilon=0.2)
    entries = [a for a in afds if a.fd == fd(["flag"], "date")]
    assert len(entries) == 1
    assert entries[0].degree == 1
    assert entries[0].error == 0.2


def test_afds_minimal_under_budget():
    rng = random.Random(25)
    for _ in range(30):
        inst = random_instance(rng, n_attrs=3, n_rows=rng.randint(4, 15))
        _, afds = discover_fds(inst, epsilon=0.3)
        budget = {a.fd for a in afds}
        for a in afds:
            assert 0 < a.error <= 0.3
            for attr in a.fd.lhs:
                smaller = fd(a.fd.lhs - {attr}, a.fd.rhs)
                assert smaller not in budget


def test_exact_results_unaffected_by_epsilon():
    rng = random.Random(26)
    for _ in range(25):
        inst = random_instance(rng, n_attrs=4)
        with_eps, _ = discover_fds(inst, epsilon=0.25)
        without, _ = discover_fds(inst, epsilon=0.0)
        assert with_eps == without


def _random_families(rng, count):
    """Random same-size families of name sets, with their bit tables."""
    for _ in range(count):
        names = [f"n{i}" for i in rng.sample(range(12), rng.randint(2, 7))]
        size = rng.randint(1, len(names) - 1)
        subsets = [frozenset(c) for c in combinations(names, size)]
        family = {s for s in subsets if rng.random() < rng.choice([0.3, 0.7, 0.95])}
        yield family, lattice_bits(names)


def _as_names(masks, bits):
    name = {bit: a for a, bit in bits.items()}
    return [frozenset(a for b, a in name.items() if m & b) for m in masks]


def test_mask_apriori_steps_match_frozenset_references_in_order():
    rng = random.Random(27)
    for family, bits in _random_families(rng, 300):
        masks = {sum(bits[a] for a in s) for s in family}
        assert _as_names(_next_level(masks), bits) == reference_next_level(family)


def test_walk_judges_the_border_of_an_upward_closed_family():
    # each mask at most once, only above one-smaller subsets judged False,
    # level by level in descending order; the hits are the minimal members
    rng = random.Random(29)
    for _ in range(400):
        width = rng.randint(0, 7)
        generators = [rng.randrange(1 << width) for _ in range(rng.randint(0, 4))]

        def member(mask):
            return any(not g & ~mask for g in generators)

        judged: dict[int, bool] = {}
        order: list[int] = []

        def verdict(mask):
            assert mask not in judged
            assert all(judged.get(mask ^ bit) is False for bit in mask_bits(mask))
            judged[mask] = member(mask)
            order.append(mask)
            return judged[mask]

        if not verdict(0):
            walk([1 << i for i in reversed(range(width))], verdict)
        sizes = [bin(m).count("1") for m in order]
        assert sizes == sorted(sizes)
        for size in set(sizes):
            level = [m for m in order if bin(m).count("1") == size]
            assert level == sorted(level, reverse=True)
        family = [m for m in range(1 << width) if member(m)]
        minimal = {m for m in family if not any(member(m ^ b) for b in mask_bits(m))}
        assert {m for m, hit in judged.items() if hit} == minimal


def test_partitions_refine_the_smallest_cached_parent(monkeypatch):
    inst = random_instance(random.Random(28), n_attrs=5, n_rows=30)
    width = len(inst.attr_names)
    masks = list(range(1, 1 << width))
    original = discovery.refine
    # level by level, as the walks request them, then in a shuffled order
    # that also requests masks with no cached one-smaller subset
    shuffled = masks[:]
    random.Random(29).shuffle(shuffled)
    picks = {"not the lowest bit": 0, "fallback": 0}
    for order in (sorted(masks, key=lambda m: bin(m).count("1")), shuffled):
        cache = _PartitionCache(inst)
        refined = []  # (mask, parent mask) per refine

        def spy(part, instance, attr):
            mask = cache.mask(part.attrs | {attr})
            parent = cache.mask(part.attrs)
            refined.append((mask, parent))
            cached = [mask ^ bit for bit in mask_bits(mask) if mask ^ bit in cache._cache]
            assert parent in cached
            assert part.size == min(cache._cache[m].size for m in cached)
            picks["not the lowest bit"] += parent != mask ^ (mask & -mask)
            return original(part, instance, attr)

        monkeypatch.setattr(discovery, "refine", spy)
        for mask in order:
            before = len(refined)
            part = cache.get(mask)
            names = sorted(cache.names(mask))
            assert part.attrs == frozenset(names)
            assert part.classes == _grouping(inst, names)
            # with no one-smaller subset cached, the mask minus its lowest
            # bit is built first, recursively
            chain = refined[before:]
            for child, parent in chain[1:]:
                assert parent == child ^ (child & -child)
            picks["fallback"] += len(chain) > 1
        # one refine per mask, 2^k - 1 in all
        assert sorted(m for m, _ in refined) == masks
    assert all(picks.values()), picks


def test_partition_classes_do_not_depend_on_request_order():
    # the parent a partition is refined from depends on what is cached
    rng = random.Random(30)
    for _ in range(40):
        inst = random_instance(
            rng,
            n_attrs=rng.randint(2, 5),
            n_rows=rng.randint(2, 25),
            null_share=rng.choice([0.0, 0.25]),
        )
        masks = list(range(1 << len(inst.attr_names)))
        first = None
        for _ in range(4):
            rng.shuffle(masks)
            cache = _PartitionCache(inst)
            got = {m: cache.get(m) for m in masks}
            got = {m: (p.attrs, p.classes, p.size) for m, p in got.items()}
            assert first is None or got == first
            first = got


def test_vacuous_instance_reports_constants():
    inst = take_rows(loads_csv("a,b\n1,2"), [])
    exact, _ = discover_fds(inst)
    assert exact == {fd([], "a"), fd([], "b")}


def test_search_matches_the_per_rhs_reference():
    rng = random.Random(31)
    for i in range(120):
        inst = random_instance(
            rng,
            n_attrs=2 + i % 6,
            n_rows=rng.randint(1, 30),
            null_share=rng.choice([0.0, 0.25]),
        )
        for epsilon in (0.0, 0.1, 0.3):
            got = _search(_PartitionCache(inst), epsilon)
            want = reference_search(_PartitionCache(inst), epsilon=epsilon)
            assert got[0] == want[0]
            assert got[1] == want[1]


def _spied_search(monkeypatch, search, inst, epsilon):
    """`search` on `inst`, with the masks whose partition it requested and
    the (mask, rhs) pairs its exact scan and its error count judged."""
    requested: list[int] = []
    scanned: list[tuple[int, int]] = []
    counted: list[tuple[int, int]] = []
    get, scan, count = (
        _PartitionCache.get,
        _PartitionCache.holds,
        _PartitionCache.error_count,
    )

    def spy_get(self, mask):
        requested.append(mask)
        return get(self, mask)

    def spy_scan(self, lhs, rhs_ord):
        scanned.append((lhs, rhs_ord))
        return scan(self, lhs, rhs_ord)

    def spy_count(self, lhs, rhs_ord):
        counted.append((lhs, rhs_ord))
        return count(self, lhs, rhs_ord)

    monkeypatch.setattr(_PartitionCache, "get", spy_get)
    monkeypatch.setattr(_PartitionCache, "holds", spy_scan)
    monkeypatch.setattr(_PartitionCache, "error_count", spy_count)
    cache = _PartitionCache(inst)
    exact, _ = search(cache, epsilon=epsilon)
    monkeypatch.undo()
    return cache, exact, requested, scanned, counted


def test_search_requests_no_partition_above_a_found_dependency(monkeypatch):
    # once X -> A is established, no lhs containing X | A is minimal for
    # any rhs, so no partition of one is requested; no (mask, rhs) pair is
    # judged twice, by the scan or by the error count
    rng = random.Random(32)
    per_rhs_requests_above = 0
    for i in range(80):
        inst = random_instance(
            rng,
            n_attrs=2 + i % 6,
            n_rows=rng.randint(2, 30),
            null_share=rng.choice([0.0, 0.25]),
        )
        epsilon = rng.choice([0.0, 0.1, 0.3])
        cache, exact, requested, scanned, counted = _spied_search(
            monkeypatch, _search, inst, epsilon
        )
        dead = {cache.mask(d.lhs | {d.rhs}) for d in exact}

        def above(mask):
            return any(not x & ~mask for x in dead)

        assert not any(map(above, requested)), inst.attr_names
        assert len(set(scanned)) == len(scanned)
        assert len(set(counted)) == len(counted)
        assert set(counted) <= set(scanned)
        # the walks per rhs do request such partitions
        _, _, requested, _, _ = _spied_search(
            monkeypatch, reference_search, inst, epsilon
        )
        per_rhs_requests_above += sum(map(above, requested))
    assert per_rhs_requests_above > 0


def test_search_builds_few_partitions_on_a_wide_join(monkeypatch):
    left, right, spec = make_fixture(
        FixtureProfile(
            left_rows=45, right_rows=45, left_attrs=6, right_attrs=4,
            dangling_fraction=0.3, duplicate_fraction=0.3,
            domain_low=2, domain_high=2,
        ),
        seed=1,
    )
    joined = join(left, right, spec)
    built = []
    original = discovery.refine

    def spy(part, instance, attr):
        built.append(attr)
        return original(part, instance, attr)

    monkeypatch.setattr(discovery, "refine", spy)
    exact, _ = discover_fds(joined)
    assert len(joined.attr_names) == 10 and len(exact) == 27
    # one walk per rhs built 972 here
    assert len(built) <= 504
