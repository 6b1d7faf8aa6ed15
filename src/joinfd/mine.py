"""Stage 3: mine the remaining join dependencies without computing the join.

An attribute b can be the rhs of a still-unknown join dependency only if the
rhs side's join attributes (possibly together with some side-local set A')
determine b on the join. These (b, A') anchors are listed by one walk over
the extensions, and each direction is mined by one `discovery.walk` over
lhs masks of the opposite side's attributes, on the context's bitmasks over
join names (`JoinContext.join_bits`). Like TANE's rhs candidate sets, the
walk carries per mask the anchors still open there, and a mask with none
left ends its branch. A candidate whose lhs fits inside an agree set that
the validator recorded under its rhs is refuted: false on the join, its
anchor stays open without an implication check or a validation. One
implied by the pool of established dependencies closes its anchor. Any
other is validated by the context's validator (`JoinContext.check_fd`),
which reads cached stripped partitions of both sides, with a cached table
of the join-value groups each lhs-side class links, and materializes no
join rows: an accepted one closes its anchor and joins the pool, and a
rejected one leaves the anchor open and the agree set of two violating
join rows behind. The context's counters count each outcome. Both
directions share the pool. It holds only true dependencies, so it never
implies a refuted one.
"""

from __future__ import annotations

from typing import Sequence

from .context import JoinContext
from .discovery import walk
from .fds import FdSet, FunctionalDependency, compile_rules, implies, mask_bits
from .joins import SEMI_KINDS
from .relation import has_nulls


def _anchors(
    j_attrs: Sequence[str],
    y_attrs: Sequence[str],
    sigma_j: FdSet,
    assume_all_anchored: bool = False,
) -> list[tuple[str, frozenset[str]]]:
    """(rhs, side-local lhs extension) pairs licensed by the rhs side.

    A pure anchor needs the join attributes alone to determine b; a mixed
    anchor needs Y together with A', where A' alone must not determine b.
    Read through the closure of the side's dependency set, on its compiled
    bitmask rules. One walk goes up the extensions from single attributes
    and carries, per extension, the rhs bits still open there: those its
    one-smaller subsets left open, less its own bits. An extension closes
    every open rhs it alone determines, and so does every superset; when
    none is left open the branch ends. Each walked extension costs one
    full closure of itself and one of Y with it, for every rhs together.

    With `assume_all_anchored` the Y-determination requirement is waived:
    when a null join value matches outer padding, a dependency can hold
    without its anchor, so every extension must stay on the table.
    """
    rules = compile_rules(sigma_j)
    y_mask = rules.mask(y_attrs)
    rhs_name = {rules.mask((b,)): b for b in j_attrs}
    everything = sum(rhs_name)
    # join attributes are themselves trivially anchored
    pure = everything if assume_all_anchored else rules.closure(y_mask)
    out = [(rhs_name[b], frozenset()) for b in mask_bits(everything & pure)]
    open_at = {0: everything}

    def verdict(ext: int) -> bool:
        still = everything
        for bit in mask_bits(ext):
            still &= open_at[ext ^ bit]
        if still:
            still &= ~rules.closure(ext)
        open_at[ext] = still
        licensed = still
        if still and not assume_all_anchored:
            licensed &= rules.closure(y_mask | ext)
        if licensed:
            ext_names = rules.names(ext)
            out.extend((rhs_name[b], ext_names) for b in mask_bits(licensed))
        return not still

    # the extension may include join attributes: under outer padding an
    # lhs carrying them is not equivalent to its rewritten form
    walk(list(rhs_name), verdict)
    out.sort(key=lambda t: (t[0], len(t[1]), tuple(sorted(t[1]))))
    return out


def discover(
    context: JoinContext,
    i_is_left: bool,
    anchors: list[tuple[str, frozenset[str]]],
    pool: FdSet,
) -> FdSet:
    """Mine dependencies with lhs from side I and anchored rhs from side J.

    Side I is the join's left input when `i_is_left`, else its right one.
    `anchors` are side J's (rhs, extension) pairs from `_anchors`, in
    side-local names; each lhs mask X of side I's join bits pairs with
    anchor (b, E) as the candidate X ∪ E -> b. One walk goes up side I's
    lattice and carries, per mask, the anchors still open there as a
    bitmask over anchor indices, the way TANE carries the open rhs
    candidates of a set: a single bit opens every anchor but those whose
    rhs is that bit (a natural join maps both sides' key to one name), and
    a larger mask the anchors open at all its one-smaller subsets. The open
    anchors of a mask are judged in list order. A refuted candidate stays
    open; an implied or accepted one closes, and an accepted one joins
    `out` and `pool`, which holds everything already established in join
    names. A mask with no anchor left open ends its branch. So an (X,
    anchor) pair is judged iff no subset of X was a hit for that anchor.
    Side I's own join attributes stay in the lhs: with outer padding a
    dependency on them is not interchangeable with one on the other side's.
    """
    instance_i = context.left if i_is_left else context.right
    i_map = context.lmap if i_is_left else context.rmap
    j_map = context.rmap if i_is_left else context.lmap
    bits = context.join_bits
    name = {bit: a for a, bit in bits.items()}
    counters = context.counters
    # per anchor index: rhs name, extension names and mask
    parts = []
    # per rhs bit: the anchors with that rhs, which its single bit leaves shut
    owned: dict[int, int] = {}
    for k, (b, ext) in enumerate(anchors):
        rhs = j_map[b]
        ext_names = frozenset(j_map[a] for a in ext)
        parts.append((rhs, ext_names, sum(map(bits.__getitem__, ext_names))))
        owned[bits[rhs]] = owned.get(bits[rhs], 0) | 1 << k
    open_at = {0: (1 << len(anchors)) - 1}
    out = FdSet()

    def verdict(lhs: int) -> bool:
        still = open_at[0] & ~owned.get(lhs, 0)
        for bit in mask_bits(lhs):
            still &= open_at[lhs ^ bit]
        lhs_names = None
        for anchor in mask_bits(still):
            rhs, ext_names, ext_mask = parts[anchor.bit_length() - 1]
            # a counterexample refutes it, so the pool of true dependencies
            # cannot imply it and validation would fail
            if context.refutes(lhs | ext_mask, rhs):
                counters.candidates_refuted += 1
                continue
            if lhs_names is None:
                lhs_names = frozenset(map(name.__getitem__, mask_bits(lhs)))
            cand = FunctionalDependency(lhs_names | ext_names, rhs)
            if implies(pool, cand):
                counters.candidates_implied += 1
            elif context.check_fd(cand):
                out.add(cand, "mined")
                pool.add(cand)
            else:
                continue
            still ^= anchor
        open_at[lhs] = still
        return not still

    walk([bits[i_map[a]] for a in instance_i.attr_names], verdict)
    return out


def discover_selective(
    context: JoinContext,
    sigma_left: FdSet,
    sigma_right: FdSet,
    sigma_prior: FdSet,
) -> FdSet:
    """Mine both directions; returns the newly mined dependencies, tagged.

    `sigma_left` / `sigma_right` are each side's join-level dependency sets
    in side-local names; `sigma_prior` is the established set in join names.
    Each side's anchors license its rhs candidates. Where outer padding
    rows of that side meet nulls in its data, a padding row can agree with
    a data row on some columns, so a dependency can hold without its
    anchor and every extension stays licensed. Both directions share one
    implication pool, a copy of the prior set, and neither adds what it
    implies, but a later acceptance can make an earlier one redundant: the
    caller reduces the union of the prior set and this output once.
    """
    spec = context.spec
    if spec.kind in SEMI_KINDS:
        return FdSet()
    left_anchors, right_anchors = (
        _anchors(inst.attr_names, on, sigma, pads and has_nulls(inst))
        for inst, on, sigma, pads in (
            (context.left, spec.left_on, sigma_left, context.pads_left()),
            (context.right, spec.right_on, sigma_right, context.pads_right()),
        )
    )
    pool = FdSet(sigma_prior.as_set())
    first = discover(context, i_is_left=True, anchors=right_anchors, pool=pool)
    second = discover(context, i_is_left=False, anchors=left_anchors, pool=pool)
    return first.union(second)
