"""Stage 3: mine the remaining join dependencies without computing the join.

An attribute b can be the rhs of a still-unknown join dependency only if the
rhs side's join attributes (possibly together with some side-local set A')
determine b on the join. Every anchored rhs is searched by `discovery.walk`
over lhs candidates drawn from the opposite side's attributes, on the
context's bitmasks over join names (`JoinContext.join_bits`). A candidate
whose lhs fits inside an agree set that the validator recorded under its
rhs is refuted: false on the join, it stays in the walk without an
implication check or a validation. One implied by the pool of established
dependencies is pruned. Any other is validated by the context's validator
(`JoinContext.check_fd`), which reads cached partitions of the lhs side and
cached (lhs part, rhs) code pairs of the rhs side and materializes no join
rows: an accepted one is a hit and joins the pool, and a rejected one stays
in the walk and leaves the agree set of two violating join rows behind.
Both directions share the pool. It holds only true dependencies, so it
never implies a refuted one.
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
    bitmask rules. The extensions are walked up from single attributes, and
    one that alone determines b ends its branch: so does every superset.

    With `assume_all_anchored` the Y-determination requirement is waived:
    when a null join value matches outer padding, a dependency can hold
    without its anchor, so every extension must stay on the table.
    """
    rules = compile_rules(sigma_j)
    y_mask = rules.mask(y_attrs)

    def determines(mask: int, goal: int) -> bool:
        return bool(rules.closure(mask, goal) & goal)

    out: list[tuple[str, frozenset[str]]] = []
    for b in j_attrs:  # join attributes are themselves trivially anchored
        goal = rules.mask((b,))
        if assume_all_anchored or y_mask & goal or determines(y_mask, goal):
            out.append((b, frozenset()))

        def verdict(ext: int) -> bool:
            if determines(ext, goal):
                return True
            if assume_all_anchored or determines(y_mask | ext, goal):
                out.append((b, rules.names(ext)))
            return False

        # the extension may include join attributes: under outer padding an
        # lhs carrying them is not equivalent to its rewritten form
        walk([rules.mask((a,)) for a in j_attrs if a != b], verdict)
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
    side-local names. `pool` holds everything already established, in
    join-result names; each accepted candidate is added to it. Side I's
    own join attributes stay in the lhs: with outer padding a dependency
    on them is not interchangeable with one on the other side's.
    """
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
            # a counterexample refutes it, so the pool of true dependencies
            # cannot imply it and validation would fail
            if context.refutes(lhs | ext_mask, rhs):
                return False
            lhs_names = frozenset(map(name.__getitem__, mask_bits(lhs)))
            cand = FunctionalDependency(lhs_names | ext_names, rhs)
            if implies(pool, cand):
                return True
            if context.check_fd(cand):
                out.add(cand, "mined")
                pool.add(cand)
                return True
            return False

        # a natural join maps both sides' key to one name, so side I can
        # own the rhs's name: that bit is no lhs candidate
        walk([bit for bit in singles if bit != bits[rhs]], verdict)
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
