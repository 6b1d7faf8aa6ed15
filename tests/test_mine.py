import random
from collections import Counter

from joinfd import fds, mine
from joinfd.context import JoinContext
from joinfd.discovery import discover_fds, holds, walk
from joinfd.fds import FdSet, Rules, fd, implies, minimal_cover, closure_equal
from joinfd.fixtures import FixtureProfile, make_fixture
from joinfd.infer import infer_join_fds
from joinfd.joins import SEMI_KINDS, JoinKind, JoinSpec, join
from joinfd.mine import _anchors, discover, discover_selective
from joinfd.oracle import oracle_join_fds
from joinfd.pipeline import run_pipeline
from joinfd.relation import loads_csv
from joinfd.upstage import upstage

from conftest import random_rules, reference_anchors, reference_mine


def _stage12(left, right, spec):
    context = JoinContext(left, right, spec)
    sigma_l, sigma_r = upstage(context)
    inferred = infer_join_fds(context, sigma_l, sigma_r)
    prior = FdSet()
    for d in sigma_l:
        prior.add(d.rename(context.lmap))
    for d in sigma_r:
        prior.add(d.rename(context.rmap))
    prior = prior.union(inferred.fds)
    return context, sigma_l, sigma_r, prior


def test_no_anchor_no_output_for_data_attributes():
    # the right side offers no rule determining b from its join attrs, so b
    # is never explored; only the trivially-anchored key pairing remains
    left = loads_csv("k,a\n1,x\n2,y\n1,y", name="L")
    right = loads_csv("k,b\n1,p\n1,q\n2,p\n2,q", name="R")
    context = JoinContext(left, right, JoinSpec.equi(["k"], ["k"]))
    anchors = _anchors(right.attr_names, ["k"], FdSet())
    got = discover(context, True, anchors, pool=FdSet())
    assert all(d.rhs == "R.k" for d in got)


def test_proof_tables_mixed_dependency_is_mined(pair_with_join_only_fd):
    left, right, spec = pair_with_join_only_fd
    context, sigma_l, sigma_r, prior = _stage12(left, right, spec)
    got = discover_selective(context, sigma_l, sigma_r, prior)
    assert fd(["L.A", "R.B"], "R.C") in got


def test_candidates_with_known_subsets_are_skipped(pair_with_join_only_fd):
    left, right, spec = pair_with_join_only_fd
    context, sigma_l, sigma_r, _ = _stage12(left, right, spec)
    pool = FdSet([fd(["L.A"], "R.C")])  # pretend a smaller rule is known
    anchors = _anchors(right.attr_names, spec.right_on, sigma_r)
    got = discover(context, True, anchors, pool=pool)
    assert fd(["L.A", "R.B"], "R.C") not in got


def test_accepted_candidates_join_the_pool(pair_with_join_only_fd):
    left, right, spec = pair_with_join_only_fd
    context, _, sigma_r, prior = _stage12(left, right, spec)
    anchors = _anchors(right.attr_names, spec.right_on, sigma_r)
    pool = FdSet(prior.as_set())
    got = discover(context, True, anchors, pool=pool)
    assert fd(["L.A", "R.B"], "R.C") in got
    assert all(d in pool for d in got)
    # a second walk over the same pool finds everything implied
    validated = context.counters.candidates_validated
    assert len(discover(context, True, anchors, pool=pool)) == 0
    assert context.counters.candidates_validated == validated


def test_mixed_anchor_skipped_when_extension_alone_works():
    # B alone determines C on the right side, so no (Y,B) anchor for C
    left = loads_csv("X,A\n0,0\n1,1", name="L")
    right = loads_csv("Y,B,C\n0,0,0\n1,0,0\n1,1,1", name="R")
    spec = JoinSpec.equi(["X"], ["Y"])
    sigma_r = discover_fds(right)
    assert implies(sigma_r, fd(["B"], "C"))
    anchors = _anchors(right.attr_names, ["Y"], sigma_r)
    assert ("C", frozenset(["B"])) not in anchors


def test_anchors_match_the_subset_enumeration():
    rng = random.Random(73)
    seen = Counter()
    for _ in range(400):
        names = [f"a{i}" for i in range(rng.randint(1, 6))]
        rng.shuffle(names)
        on = rng.sample(names, rng.randint(1, len(names)))
        assume = rng.random() < 0.5
        sigma = random_rules(rng, names)
        expected = reference_anchors(names, on, FdSet(sigma.as_set()), assume)
        assert _anchors(names, on, sigma, assume) == expected
        seen["assumed" if assume else "licensed"] += 1
        seen["no rules"] += not sigma.as_set()
        seen["constant"] += any(implies(sigma, fd([], b)) for b in names)
    assert len(seen) == 4 and min(seen.values()) >= 40, seen


def test_one_walk_per_direction_matches_the_per_anchor_miner(monkeypatch):
    # discover judges each (lhs, anchor) pair at most once, exactly when no
    # subset of its lhs was a hit for that anchor, and ends closure-equal
    # to one walk per anchor; _anchors closes each walked extension at most
    # twice, after one closure of the join attributes
    closures = walked = 0
    closure = Rules.closure

    def counted_closure(self, mask, goal=0):
        nonlocal closures
        closures += 1
        return closure(self, mask, goal)

    def counted_walk(level, verdict):
        def counted(mask):
            nonlocal walked
            walked += 1
            return verdict(mask)

        walk(level, counted)

    judged: list[list] = []  # [mask over join bits, rhs, hit]

    def recorded_implies(pool, cand):
        judged[-1][2] = fds.implies(pool, cand)
        return judged[-1][2]

    monkeypatch.setattr(mine, "implies", recorded_implies)
    rng = random.Random(75)
    kinds = [k for k in JoinKind if k not in SEMI_KINDS]
    seen = Counter()
    for seed in range(200):
        prof = FixtureProfile(
            left_rows=rng.randint(4, 14), right_rows=rng.randint(4, 14),
            left_attrs=rng.randint(2, 4), right_attrs=rng.randint(2, 4),
            dangling_fraction=rng.choice([0.0, 0.3]),
            duplicate_fraction=rng.choice([0.0, 0.3]),
            op=kinds[seed % len(kinds)],
        )
        left, right, spec = make_fixture(prof, seed=seed)
        context, sigma_l, sigma_r, prior = _stage12(left, right, spec)
        sides = {
            True: (right, spec.right_on, sigma_r),
            False: (left, spec.left_on, sigma_l),
        }
        anchors = {}
        for i_is_left, (inst, on, sigma) in sides.items():
            closures = walked = 0
            with monkeypatch.context() as patch:
                patch.setattr(Rules, "closure", counted_closure)
                patch.setattr(mine, "walk", counted_walk)
                anchors[i_is_left] = _anchors(inst.attr_names, on, sigma)
            assert closures <= 2 * walked + 1, (seed, closures, walked)

        reference = FdSet(prior.as_set())
        for i_is_left in (True, False):
            fresh = JoinContext(left, right, spec)
            reference_mine(fresh, i_is_left, anchors[i_is_left], reference)

        pool = FdSet(prior.as_set())
        check_fd, refutes = context.check_fd, context.refutes

        def recorded_refutes(mask, rhs):
            judged.append([mask, rhs, False])
            return refutes(mask, rhs)

        def recorded_check(cand):
            judged[-1][2] = check_fd(cand)
            return judged[-1][2]

        context.refutes, context.check_fd = recorded_refutes, recorded_check
        for i_is_left in (True, False):
            del judged[:]
            counters = vars(context.counters).copy()
            discover(context, i_is_left, anchors[i_is_left], pool)
            funnel = sum(
                getattr(context.counters, f"candidates_{k}") - counters[f"candidates_{k}"]
                for k in ("refuted", "implied", "validated")
            )
            assert funnel == len(judged)
            i_map = context.lmap if i_is_left else context.rmap
            j_map = context.rmap if i_is_left else context.lmap
            i_bits = [context.join_bits[a] for a in i_map.values()]
            # per anchor: every lhs judged, and whether it was a hit
            verdicts: dict[tuple, dict[int, bool]] = {}
            for mask, rhs, hit in judged:
                lhs = sum(bit for bit in i_bits if bit & mask)
                per_lhs = verdicts.setdefault((rhs, mask ^ lhs), {})
                assert lhs not in per_lhs, (seed, mask, rhs)
                per_lhs[lhs] = hit
            for b, ext in anchors[i_is_left]:
                ext_mask = sum(context.join_bits[j_map[a]] for a in ext)
                per_lhs = verdicts.get((j_map[b], ext_mask), {})
                hits = [lhs for lhs, hit in per_lhs.items() if hit]
                for lhs in range(1, 1 << len(i_bits)):
                    mask = sum(bit for k, bit in enumerate(i_bits) if lhs >> k & 1)
                    below_hit = any(h != mask and not h & ~mask for h in hits)
                    assert (mask in per_lhs) == (not below_hit), (seed, b, ext, mask)
                seen["hit"] += bool(hits)
            seen["judged"] += len(judged)
        assert closure_equal(pool, reference), seed
        seen["mined"] += len(pool) > len(prior)
    assert min(seen.values()) >= 50, seen


def test_mined_dependencies_hold_on_the_join():
    rng = random.Random(71)
    for seed in range(30):
        prof = FixtureProfile(
            left_rows=rng.randint(6, 16), right_rows=rng.randint(6, 16),
            left_attrs=rng.randint(3, 4), right_attrs=rng.randint(3, 4),
            dangling_fraction=rng.choice([0.0, 0.3]),
            op=list(JoinKind)[seed % 6],
        )
        left, right, spec = make_fixture(prof, seed=seed)
        if spec.kind in (JoinKind.LEFT_SEMI, JoinKind.RIGHT_SEMI):
            continue
        context, sigma_l, sigma_r, prior = _stage12(left, right, spec)
        got = discover_selective(context, sigma_l, sigma_r, prior)
        joined = join(left, right, spec)
        for d in got:
            assert holds(joined, d)


def test_anchor_consequence_on_mined_output():
    # for every mined dependency, the rhs-side join attributes plus the
    # rhs-side lhs part also determine the rhs on the join
    rng = random.Random(72)
    for seed in range(20):
        prof = FixtureProfile(
            left_rows=12, right_rows=12, left_attrs=3, right_attrs=3,
            dangling_fraction=0.25,
        )
        left, right, spec = make_fixture(prof, seed=seed)
        context, sigma_l, sigma_r, prior = _stage12(left, right, spec)
        got = discover_selective(context, sigma_l, sigma_r, prior)
        joined = join(left, right, spec)
        for d in got:
            right_part = {a for a in d.lhs if a.startswith("R.")}
            if d.rhs.startswith("R."):
                anchor_lhs = right_part | {"R.k"}
            else:
                anchor_lhs = {a for a in d.lhs if a.startswith("L.")} | {"L.k"}
            if d.rhs in anchor_lhs:
                continue  # join-attribute rhs: the anchor is trivial
            assert holds(joined, fd(anchor_lhs, d.rhs))


def test_no_subset_redundancy_in_final_output():
    rng = random.Random(73)
    for seed in range(20):
        prof = FixtureProfile(
            left_rows=10, right_rows=10, left_attrs=3, right_attrs=3,
            dangling_fraction=0.2,
        )
        left, right, spec = make_fixture(prof, seed=seed)
        context, sigma_l, sigma_r, prior = _stage12(left, right, spec)
        mined = discover_selective(context, sigma_l, sigma_r, prior)
        final = minimal_cover(prior.union(mined))
        pool = final.as_set()
        for d in pool:
            for other in pool:
                if other != d and other.rhs == d.rhs:
                    assert not other.lhs < d.lhs


def test_pipeline_stages_equal_oracle_on_random_pairs():
    rng = random.Random(74)
    for seed in range(25):
        prof = FixtureProfile(
            left_rows=rng.randint(5, 20), right_rows=rng.randint(5, 20),
            left_attrs=rng.randint(2, 4), right_attrs=rng.randint(2, 4),
            dangling_fraction=rng.choice([0.0, 0.2, 0.5]),
            duplicate_fraction=rng.choice([0.0, 0.3]),
        )
        left, right, spec = make_fixture(prof, seed=seed)
        context, sigma_l, sigma_r, prior = _stage12(left, right, spec)
        mined = discover_selective(context, sigma_l, sigma_r, prior)
        assert closure_equal(
            minimal_cover(prior.union(mined)), oracle_join_fds(left, right, spec)
        )


def test_semi_joins_mine_nothing():
    left = loads_csv("k,a\n1,x\n2,y", name="L")
    right = loads_csv("k,b\n1,p", name="R")
    spec = JoinSpec.equi(["k"], ["k"], JoinKind.LEFT_SEMI)
    got = discover_selective(JoinContext(left, right, spec), FdSet(), FdSet(), FdSet())
    assert len(got) == 0


def _natural_pair(left_csv, right_csv, kind):
    left = loads_csv(left_csv, name="L", null_tokens=["∅"])
    right = loads_csv(right_csv, name="R", null_tokens=["∅"])
    return left, right, JoinSpec.natural_join(left, right, kind)


def test_natural_join_key_is_not_a_candidate_for_itself():
    # both sides' key maps to the one merged column, so the lhs candidate
    # {k} for the rhs k is trivial and must be skipped, not constructed
    for kind in JoinKind:
        left, right, spec = _natural_pair(
            "k,a\n1,x\n2,y", "k,b\n1,p\n2,q\n2,r", kind
        )
        rep = run_pipeline(left, right, spec, strategy="selective")
        assert closure_equal(rep.fds, oracle_join_fds(left, right, spec)), kind


def test_natural_full_outer_with_null_keys_matches_oracle():
    left, right, spec = _natural_pair(
        "k0,a0\ny,y\nz,z\ny,∅\n∅,z\nx,z", "k0,b0\nz,z", JoinKind.FULL_OUTER
    )
    rep = run_pipeline(left, right, spec, strategy="selective")
    assert closure_equal(rep.fds, oracle_join_fds(left, right, spec))


def test_natural_padding_breaks_dependencies_without_nulls_in_the_data():
    # natural padding rows are null outside the merged key, which carries
    # the dangling join value: the left padding row (x,y,∅,∅) agrees with
    # the left row (y,y,y,z) on k1 but not on a1, and the padding rows
    # (x,y,∅) and (z,y,∅) agree on a0 but not on k0. The run must report
    # the broken dependencies, not raise.
    cases = [
        ("k0,k1,a0,a1\nz,x,y,x\ny,y,y,z", "k0,k1\nx,y\ny,y", "left: k1 -> a1"),
        ("k0,k1,a0\nx,x,p\nw,x,q", "k0,k1\ny,y\nz,y\nx,x\nw,x", "left: a0 -> k0"),
    ]
    for left_csv, right_csv, broken in cases:
        for kind in (JoinKind.RIGHT_OUTER, JoinKind.FULL_OUTER):
            left, right, spec = _natural_pair(left_csv, right_csv, kind)
            rep = run_pipeline(left, right, spec, strategy="selective")
            assert broken in rep.violated_fds, kind
            assert closure_equal(rep.fds, oracle_join_fds(left, right, spec)), kind


def test_width_cliff_stays_exact_and_bounded():
    # seven attributes a side on tiny domains: the lhs lattice is wide, and
    # the walk must neither lose a dependency nor validate more than it does
    # (the count pins the cover one walk over all open anchors reaches, and
    # the counterexamples the validator's scan order keeps: a worse witness
    # refutes less and shows as more validations)
    prof = FixtureProfile(
        left_rows=150, right_rows=150, left_attrs=7, right_attrs=7,
        dangling_fraction=0.3, duplicate_fraction=0.3, domain_low=2, domain_high=8,
    )
    left, right, spec = make_fixture(prof, seed=2)
    rep = run_pipeline(left, right, spec, strategy="selective")
    assert closure_equal(rep.fds, oracle_join_fds(left, right, spec))
    assert len(rep.fds) == 242
    assert rep.counters.candidates_validated <= 626
