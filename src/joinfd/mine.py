"""Stage 3: mine the remaining join dependencies without computing the join.

An attribute b can be the rhs of a still-unknown join dependency only if the
rhs side's join attributes (possibly together with some side-local set A')
determine b on the join. Every anchored rhs is explored level-wise over lhs
candidates drawn from the opposite side's non-join attributes, each candidate
validated by the context's streaming validator (`JoinContext.check_fd`), which
reads per-group code slabs and materializes no join rows. Candidates
implied by previously established dependencies are skipped, and a lhs
attribute is dropped from the alphabet once it can no longer contribute.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .context import JoinContext
from .discovery import next_lhs_level
from .fds import (
    FdSet,
    FunctionalDependency,
    attribute_closure,
    implies,
    remove_implied,
)
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
    Read through the closure of the side's dependency set.

    With `assume_all_anchored` the Y-determination requirement is waived:
    when a null join value matches outer padding, a dependency can hold
    without its anchor, so every extension must stay on the table.
    """
    y_set = frozenset(y_attrs)
    rules = list(sigma_j)  # iterating an FdSet sorts it; do that once
    out: list[tuple[str, frozenset[str]]] = []
    for b in j_attrs:  # join attributes are themselves trivially anchored
        if assume_all_anchored or b in attribute_closure(y_set, rules):
            out.append((b, frozenset()))
        # the extension may include join attributes: under outer padding an
        # lhs carrying them is not equivalent to its rewritten form
        others = [a for a in j_attrs if a != b]
        for size in range(1, len(others) + 1):
            for combo in combinations(others, size):
                ext = frozenset(combo)
                if b in attribute_closure(ext, rules):
                    continue  # the extension alone already determines b
                if assume_all_anchored or b in attribute_closure(
                    y_set | ext, rules
                ):
                    out.append((b, ext))
    out.sort(key=lambda t: (t[0], len(t[1]), tuple(sorted(t[1]))))
    return out


def _padding_shadows_anchors(context: JoinContext, j_is_left: bool) -> bool:
    """Can outer padding on the rhs side agree with one of its data rows?

    Null cells let a data row coincide with the all-null padding row on
    some column subset, so a dependency can hold on the join while the
    join attributes do not determine its rhs. Anchor pruning is then
    unsafe and the whole candidate lattice stays open.
    """
    pads = context.pads_left() if j_is_left else context.pads_right()
    if not pads:
        return False
    return has_nulls(context.left if j_is_left else context.right)


def discover(
    context: JoinContext,
    i_is_left: bool,
    sigma_j: FdSet,
    sigma_prior: FdSet,
    i_plausible_rhs: frozenset[str] | None = None,
) -> FdSet:
    """Mine dependencies with lhs from side I and anchored rhs from side J.

    Side I is the join's left input when `i_is_left`, else its right one.
    `sigma_j` holds on side J's join row set, in side-local names;
    `sigma_prior` is everything already established, in join-result names.
    """
    instance_i = context.left if i_is_left else context.right
    instance_j = context.right if i_is_left else context.left
    y_attrs = context.spec.right_on if i_is_left else context.spec.left_on
    i_map = context.lmap if i_is_left else context.rmap
    j_map = context.rmap if i_is_left else context.lmap
    out = FdSet()
    pool = list(sigma_prior)  # the prior set plus every accepted candidate
    anchors = _anchors(
        instance_j.attr_names,
        y_attrs,
        sigma_j,
        assume_all_anchored=_padding_shadows_anchors(context, j_is_left=not i_is_left),
    )
    for b, ext in anchors:
        rhs = j_map[b]
        ext_mapped = frozenset(j_map[a] for a in ext)
        # own join attributes stay in the alphabet: with outer padding a
        # dependency on them is not interchangeable with the other side's
        alphabet = list(instance_i.attr_names)
        level = [frozenset([a]) for a in alphabet]
        while level:
            survivors = []
            blocked = {a: True for a in alphabet}
            for lhs_i in level:
                if not set(lhs_i) <= set(alphabet):
                    continue
                # a natural join maps both sides' key to one name, so the
                # mapped lhs can contain the rhs: such a candidate is trivial
                lhs = frozenset(i_map[a] for a in lhs_i) | ext_mapped
                if rhs in lhs:
                    continue
                cand = FunctionalDependency(lhs, rhs)
                if implies(pool, cand):
                    continue
                if context.check_fd(cand):
                    out.add(cand, "mined")
                    pool.append(cand)
                else:
                    survivors.append(lhs_i)
                    for a in lhs_i:
                        blocked[a] = False
            if i_plausible_rhs is not None:
                alphabet = [
                    a
                    for a in alphabet
                    if a in i_plausible_rhs or not blocked.get(a, False)
                ]
            level = [
                s for s in next_lhs_level(survivors) if set(s) <= set(alphabet)
            ]
    return out


def discover_selective(
    context: JoinContext,
    sigma_left: FdSet,
    sigma_right: FdSet,
    sigma_prior: FdSet,
) -> FdSet:
    """Mine both directions; returns only the newly mined dependencies.

    `sigma_left` / `sigma_right` are each side's join-level dependency sets
    in side-local names; `sigma_prior` is the established set in join names.
    """
    spec = context.spec
    if spec.kind in SEMI_KINDS:
        return FdSet()
    plausible_left = frozenset(
        b for b, _ in _anchors(context.left.attr_names, spec.left_on, sigma_left)
    )
    plausible_right = frozenset(
        b for b, _ in _anchors(context.right.attr_names, spec.right_on, sigma_right)
    )
    first = discover(
        context, i_is_left=True, sigma_j=sigma_right, sigma_prior=sigma_prior,
        i_plausible_rhs=plausible_left,
    )
    prior_plus = sigma_prior.union(first)
    second = discover(
        context, i_is_left=False, sigma_j=sigma_left, sigma_prior=prior_plus,
        i_plausible_rhs=plausible_right,
    )
    mined = FdSet()
    kept = remove_implied(sigma_prior.union(first, second))
    for d in first.union(second):
        if d in kept:
            mined.add(d, "mined")
    return mined
