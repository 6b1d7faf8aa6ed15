"""Shared fixtures, independent brute-force oracles and frozenset references.

The oracles here deliberately avoid the library's partition/lattice
machinery: they enumerate subsets and scan decoded rows with dictionaries,
so they can serve as ground truth for it. The references are the plain
frozenset forms of the library's bitmask algorithms (closure, redundancy
removal, the apriori step), the mining anchors and inference determiners
found by testing every subset instead of walking the lattice, a join that
decodes every cell and encodes the result again, and the selection tree
that ranks and sorts every branch whole; the library must return exactly
what they do. The miner that walks the lattice once per anchor, not once
per direction, is kept too: the library's must be closure-equal to it.
So is the single-table search that walks the lattice once per rhs: the
library's one walk for every rhs must return exactly what it does. So is
the upstaging stage that mines every input table whole and then re-mines
each side's join rows for what the input's set does not imply, pruning
the reference search with that set: reports made with it must be
closure-equal to the library's, which mines each side's rows once, whole.
So is the sampling strategy as it ran with stage 1, upstaging each side's
join rows before the micro-join (`reference_sampling`): the library's
sampling reports must match it exactly, tags included.
`recorded_contexts` and `counterexamples_refuted_on_join` check the
validator's counterexamples against the materialized join.
"""

from itertools import combinations

import pytest

from joinfd import pipeline
from joinfd.context import JoinContext
from joinfd.discovery import _PartitionCache, discover_fds, holds, walk
from joinfd.fds import (
    FdSet,
    FunctionalDependency,
    Rules,
    compile_rules,
    implies,
    remove_implied,
)
from joinfd.joins import (
    PADS_LEFT_ATTRS,
    PADS_RIGHT_ATTRS,
    JoinKind,
    JoinSpec,
    join,
    result_schema,
)
from joinfd.relation import Instance, loads_csv
from joinfd.sample import _rank, _value_sort_key, discover_sampled
from joinfd.upstage import _preserved_test, upstage


@pytest.fixture
def pair_with_join_only_fd():
    """The 4-row pair whose join satisfies a dependency neither side implies.

    On the right table alone exactly {Y,B -> C} and {Y,C -> B} hold; the
    equi-join on X=Y has six rows and additionally satisfies {A,B -> C},
    which no amount of reasoning over the two tables separately can derive.
    """
    left = loads_csv("X,A\n0,0\n1,0\n1,1\n2,2", name="L")
    right = loads_csv("Y,B,C\n0,0,0\n1,0,0\n1,1,1\n2,1,0", name="R")
    return left, right, JoinSpec.equi(["X"], ["Y"])


@pytest.fixture
def recorded_contexts(monkeypatch):
    """Every JoinContext `run_pipeline` makes, each keeping in `refuted`
    the (join-name mask, rhs) candidates it refuted."""
    made: list[JoinContext] = []

    class Recording(JoinContext):
        def __init__(self, *args):
            super().__init__(*args)
            self.refuted: list[tuple[int, str]] = []
            made.append(self)

        def refutes(self, mask: int, rhs: str) -> bool:
            hit = super().refutes(mask, rhs)
            if hit:
                self.refuted.append((mask, rhs))
            return hit

    monkeypatch.setattr(pipeline, "JoinContext", Recording)
    return made


def counterexamples_refuted_on_join(context) -> tuple[int, int]:
    """Check a context's counterexamples on its materialized join.

    Every agree set kept for rhs b must exclude b, and names(mask) -> b must
    fail on the join; so must every candidate the context refuted (see
    `recorded_contexts`). Returns how many agree sets and refutations
    were checked.
    """
    joined = join(context.left, context.right, context.spec)
    name = {bit: a for a, bit in context.join_bits.items()}

    def false_on_join(mask: int, rhs: str) -> bool:
        lhs = frozenset(a for bit, a in name.items() if bit & mask)
        return not holds(joined, FunctionalDependency(lhs, rhs))

    agree_sets = 0
    for rhs, masks in context.agree_sets.items():
        for mask in masks:
            assert not mask & context.join_bits[rhs], (context.spec, rhs)
            assert false_on_join(mask, rhs), (context.spec, mask, rhs)
            agree_sets += 1
    for mask, rhs in context.refuted:
        assert false_on_join(mask, rhs), (context.spec, mask, rhs)
    return agree_sets, len(context.refuted)


def brute_force_fds(instance: Instance) -> FdSet:
    """All minimal dependencies by exhaustive candidate enumeration."""
    rows = instance.raw_rows()
    names = list(instance.attr_names)
    idx = {a: i for i, a in enumerate(names)}

    def fd_holds(lhs, rhs) -> bool:
        seen = {}
        for row in rows:
            key = tuple(row[idx[a]] for a in lhs)
            value = row[idx[rhs]]
            if seen.setdefault(key, value) != value:
                return False
        return True

    out = FdSet()
    for rhs in names:
        others = [a for a in names if a != rhs]
        minimal: list[frozenset] = []
        for size in range(len(others) + 1):
            for combo in combinations(others, size):
                lhs = frozenset(combo)
                if any(small <= lhs for small in minimal):
                    continue
                if fd_holds(combo, rhs):
                    minimal.append(lhs)
                    out.add(FunctionalDependency(lhs, rhs))
    return out


def brute_force_violations(instance: Instance, lhs, rhs) -> int:
    """g3 count: per lhs group, the rows outside its most frequent rhs value."""
    rows = instance.raw_rows()
    names = list(instance.attr_names)
    idx = {a: i for i, a in enumerate(names)}
    groups: dict = {}
    for row in rows:
        key = tuple(row[idx[a]] for a in sorted(lhs))
        counts = groups.setdefault(key, {})
        counts[row[idx[rhs]]] = counts.get(row[idx[rhs]], 0) + 1
    return sum(sum(c.values()) - max(c.values()) for c in groups.values())


def reference_closure(attrs, fds) -> frozenset:
    """Attribute closure on name sets, rescanning every rule each pass."""
    closure = set(attrs)
    pending = list(fds)
    changed = True
    while changed:
        changed = False
        remaining = []
        for d in pending:
            if d.lhs <= closure:
                if d.rhs not in closure:
                    closure.add(d.rhs)
                    changed = True
            else:
                remaining.append(d)
        pending = remaining
    return frozenset(closure)


def reference_remove_implied(fds) -> set:
    """Drop members implied by the rest, largest lhs first, on name sets."""
    pool = sorted(set(fds), key=FunctionalDependency.sort_key)
    for d in sorted(pool, key=lambda x: (-len(x.lhs),) + x.sort_key()):
        rest = [e for e in pool if e != d]
        if d.rhs in reference_closure(d.lhs, rest):
            pool = rest
    return set(pool)


def reference_next_lhs_level(lhss) -> list[frozenset]:
    """Apriori step: unions of two same-size sets sharing all but their last."""
    tuples = sorted({tuple(sorted(s)) for s in lhss})
    out = set()
    for i, a in enumerate(tuples):
        for b in tuples[i + 1 :]:
            if a[:-1] != b[:-1]:
                break
            out.add(frozenset(a) | {b[-1]})
    return sorted(out, key=lambda s: tuple(sorted(s)))


def reference_next_level(kept) -> list[frozenset]:
    """Apriori step keeping only sets whose one-smaller subsets are all kept."""
    return [
        c for c in reference_next_lhs_level(kept) if all(c - {a} in kept for a in c)
    ]


def random_rules(rng, names) -> FdSet:
    """Up to eight random dependencies over `names`, each lhs of 0-3 other
    names; one set in five is empty."""
    out = FdSet()
    if rng.random() < 0.2:
        return out
    for _ in range(rng.randint(1, 8)):
        rhs = rng.choice(names)
        others = [a for a in names if a != rhs]
        lhs = rng.sample(others, rng.randint(0, min(3, len(others))))
        out.add(FunctionalDependency(frozenset(lhs), rhs))
    return out


def reference_anchors(j_attrs, y_attrs, sigma_j, assume_all_anchored=False) -> list:
    """`mine._anchors` testing every subset of the other attributes as an
    extension."""
    rules = compile_rules(sigma_j)
    y_mask = rules.mask(y_attrs)

    def determines(mask: int, goal: int) -> bool:
        return bool(rules.closure(mask, goal) & goal)

    out = []
    for b in j_attrs:
        goal = rules.mask((b,))
        if assume_all_anchored or y_mask & goal or determines(y_mask, goal):
            out.append((b, frozenset()))
        others = [a for a in j_attrs if a != b]
        for size in range(1, len(others) + 1):
            for combo in combinations(others, size):
                ext = rules.mask(combo)
                if determines(ext, goal):
                    continue
                if assume_all_anchored or determines(y_mask | ext, goal):
                    out.append((b, frozenset(combo)))
    out.sort(key=lambda t: (t[0], len(t[1]), tuple(sorted(t[1]))))
    return out


def reference_mine(context, i_is_left, anchors, pool) -> FdSet:
    """`mine.discover` as one walk of side I's lattice per anchor, in list
    order, each judging only its own (lhs, anchor) pairs."""
    instance_i = context.left if i_is_left else context.right
    i_map = context.lmap if i_is_left else context.rmap
    j_map = context.rmap if i_is_left else context.lmap
    bits = context.join_bits
    name = {bit: a for a, bit in bits.items()}
    singles = [bits[i_map[a]] for a in instance_i.attr_names]
    out = FdSet()
    for b, ext in anchors:
        rhs = j_map[b]
        ext_names = frozenset(j_map[a] for a in ext)
        ext_mask = sum(map(bits.__getitem__, ext_names))

        def verdict(lhs: int) -> bool:
            if context.refutes(lhs | ext_mask, rhs):
                return False
            lhs_names = frozenset(a for bit, a in name.items() if bit & lhs)
            cand = FunctionalDependency(lhs_names | ext_names, rhs)
            if implies(pool, cand):
                return True
            if context.check_fd(cand):
                out.add(cand, "mined")
                pool.add(cand)
                return True
            return False

        walk([bit for bit in singles if bit != bits[rhs]], verdict)
    return out


def reference_search(cache, known=()) -> FdSet:
    """`discovery._search` as one walk of the lattice per rhs, from the
    empty set, pruning only above that rhs's own hits and what `known` plus
    that rhs's finds imply."""
    instance = cache.instance
    rules = Rules()
    if known:
        rules.mask(sorted(cache.bits, reverse=True))
        for d in known:
            rules.add(d)
    check = bool(rules.rules)
    exact = FdSet()
    for rhs in instance.attr_names:
        rhs_ord = instance.ordinal(rhs)
        goal = cache.bits[rhs]
        found: list[int] = []

        def verdict(lhs: int) -> bool:
            if check:
                reach = rules.closure(lhs, goal)
                if reach & goal or any(not x & ~reach for x in found):
                    return True
            if cache.holds(lhs, rhs_ord):
                exact.add(FunctionalDependency(cache.names(lhs), rhs))
                found.append(lhs)
                return True
            return False

        if not verdict(0):
            walk([bit for bit in cache.bits.values() if bit != goal], verdict)
    return exact


def reference_upstage(context) -> tuple[FdSet, FdSet]:
    """`upstage.upstage` mining every input table whole, then each side's
    join rows again for what the input members that hold there do not
    imply, by `reference_search` pruned with them."""
    out = []
    for side, inst in (("left", context.left), ("right", context.right)):
        sub = context.side_subinstance(side)
        if sub is None:
            out.append(FdSet())
            continue
        survivors = FdSet(d for d in discover_fds(inst) if holds(sub, d))
        out.append(survivors.union(reference_search(_PartitionCache(sub), survivors)))
    return out[0], out[1]


def reference_sampling(left, right, spec, cfg) -> tuple[FdSet, list, list]:
    """The sampling strategy on a non-semi pair as it ran with stage 1.

    Each side's join rows are mined whole (`upstage`), and a padded side's
    survivors are the input members its mined set implies. The micro-join
    follows. Each final member takes the tag of the first stage that made
    it, `upstaged-left`, `upstaged-right`, then `sampled`, and becomes
    `preserved-*` by `upstage._preserved_test` unless it is still
    `sampled`. Returns the tagged set, `violated_fds` and the warnings.
    """
    context = JoinContext(left, right, spec)
    sigma = dict(zip(("left", "right"), upstage(context)))
    names = {"left": context.lmap, "right": context.rmap}
    pads = {"left": context.pads_left(), "right": context.pads_right()}
    padded = [side for side in pads if pads[side]]
    survivors: dict[str, FdSet] = {}
    violated, warnings = [], []
    for side in padded:
        members = context.input_fds(side)
        survivors[side] = FdSet(d for d in members if implies(sigma[side], d))
        dropped = [f"{side}: {d}" for d in members if d not in survivors[side]]
        violated += dropped
        if dropped:
            warnings.append(
                f"{len(dropped)} single-table dependencies of the {side} side "
                f"are broken by outer-join padding"
            )
    prior = FdSet()
    for side in ("left", "right"):
        for d in sigma[side]:
            prior.add(d.rename(names[side]), f"upstaged-{side}")
    prior = prior.union(discover_sampled(context, cfg))
    tests = {}
    tagged = FdSet()
    for d in remove_implied(prior):
        tag = prior.origins[d]
        for side in ("left", "right") if tag != "sampled" else ():
            base = {qual: a for a, qual in names[side].items()}
            if d.rhs not in base or not d.lhs <= base.keys():
                continue
            if side not in tests:
                tests[side] = _preserved_test(context, side, survivors)
            if tests[side](d.rename(base)):
                tag = f"preserved-{side}"
                break
        tagged.add(d, tag)
    return tagged, violated, warnings


def reference_minimal_determiners(target, fds) -> list[frozenset]:
    """`infer._minimal_determiners` testing every subset of the names of
    rule lhss and of `target`, smallest first."""
    rules = compile_rules(fds)
    universe = sorted({a for lhs in rules.rules for a in rules.names(lhs)} | target)
    goal = rules.mask(target)
    found: list[int] = []
    out: list[frozenset] = []
    for size in range(len(universe) + 1):
        for combo in combinations(universe, size):
            cand = rules.mask(combo)
            if any(not small & ~cand for small in found):
                continue
            if rules.closure(cand) & goal == goal:
                found.append(cand)
                out.append(frozenset(combo))
    return out


def model_implies(base, candidate, universe) -> bool:
    """Model-theoretic implication via closed attribute sets.

    A two-row counterexample instance exists exactly when some set closed
    under `base` contains the candidate's lhs but not its rhs.
    """
    attrs = list(universe)
    for size in range(len(attrs) + 1):
        for combo in combinations(attrs, size):
            s = set(combo)
            closed = all(not (d.lhs <= s) or d.rhs in s for d in base)
            if closed and candidate.lhs <= s and candidate.rhs not in s:
                return False
    return True


def random_instance(
    rng, n_attrs=None, n_rows=None, name="T", null_share=0.0
) -> Instance:
    n_attrs = n_attrs or rng.randint(2, 4)
    n_rows = n_rows or rng.randint(2, 20)
    names = [f"c{i}" for i in range(n_attrs)]
    domains = [rng.randint(1, max(2, n_rows // 2)) for _ in range(n_attrs)]
    rows = [
        [
            None
            if null_share and rng.random() < null_share
            else f"v{rng.randrange(domains[i])}"
            for i in range(n_attrs)
        ]
        for _ in range(n_rows)
    ]
    return Instance.from_rows(names, rows, name=name)


def reference_join(left: Instance, right: Instance, spec: JoinSpec) -> Instance:
    """The join operators on decoded rows, re-encoded by `from_rows`.

    Same row order as `join`: left rows in order, each followed by its
    matches in right order, dangling right rows at the end; a semi-join
    keeps the first of each distinct matched row.
    """
    spec.validate(left, right)
    lords = [left.ordinal(a) for a in spec.left_on]
    rords = [right.ordinal(a) for a in spec.right_on]
    lkeys = [tuple(row[o] for o in lords) for row in left.raw_rows()]
    rkeys = [tuple(row[o] for o in rords) for row in right.raw_rows()]

    def semi(side: Instance, keys: list, partner_keys: set) -> Instance:
        kept = [
            row for row, k in zip(side.raw_rows(), keys) if k in partner_keys
        ]
        return Instance.from_rows(
            side.attr_names, list(dict.fromkeys(kept)), name=side.name
        )

    if spec.kind is JoinKind.LEFT_SEMI:
        return semi(left, lkeys, set(rkeys))
    if spec.kind is JoinKind.RIGHT_SEMI:
        return semi(right, rkeys, set(lkeys))
    rindex: dict[tuple, list[int]] = {}
    for j, k in enumerate(rkeys):
        rindex.setdefault(k, []).append(j)
    pairs: list[tuple] = []
    matched_right: set[int] = set()
    for i, k in enumerate(lkeys):
        hits = rindex.get(k)
        if hits:
            pairs += [(i, j) for j in hits]
            matched_right.update(hits)
        elif spec.kind in PADS_RIGHT_ATTRS:
            pairs.append((i, None))
    if spec.kind in PADS_LEFT_ATTRS:
        pairs += [(None, j) for j in range(right.row_count) if j not in matched_right]
    right_keep = [
        o
        for o, a in enumerate(right.attr_names)
        if not (spec.natural and a in spec.right_on)
    ]
    rows = []
    for i, j in pairs:
        rrow = right.raw_row(j) if j is not None else None
        if i is not None:
            lpart = list(left.raw_row(i))
        else:
            lpart = [None] * len(left.attr_names)
            if spec.natural:
                for lo, ro in zip(lords, rords):
                    lpart[lo] = rrow[ro]
        rpart = [None if rrow is None else rrow[o] for o in right_keep]
        rows.append(lpart + rpart)
    name = f"({left.name}*{right.name})" if (left.name or right.name) else ""
    return Instance.from_rows(result_schema(left, right, spec), rows, name=name)


def reference_ids_set(instance: Instance, on, groups: dict, cfg) -> set:
    """The selection tree sorting each branch by value, then by rank; a side
    whose tree would be empty selects every candidate."""
    nonjoin = [a for a in instance.attr_names if a not in set(on)]
    if len(nonjoin) <= cfg.n_v:
        return set(groups)
    rows = [r for group in groups.values() for r in group]

    def distinct(attr: str) -> int:
        col = instance.columns[instance.ordinal(attr)]
        return len({col[r] for r in rows})

    ranked = sorted(nonjoin, key=lambda a: (distinct(a), a))
    out: set = set()
    for attr in ranked[: len(ranked) - cfg.n_v]:
        col = instance.columns[instance.ordinal(attr)]
        by_value: dict[int, set] = {}
        for value, group in groups.items():
            for r in group:
                by_value.setdefault(col[r], set()).add(value)
        for code in sorted(by_value):
            branch = sorted(by_value[code], key=_value_sort_key)
            if len(branch) > 1:
                branch = sorted(branch, key=lambda v: _rank(cfg.seed, v))[: cfg.n_b]
            out.update(branch)
    return out
