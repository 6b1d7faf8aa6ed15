"""Stage 3: mine the remaining join dependencies without computing the join.

An attribute b can be the rhs of a still-unknown join dependency only if the
rhs side's join attributes (possibly together with some side-local set A')
determine b on the join. Every anchored rhs is explored level-wise over lhs
candidates drawn from the opposite side's non-join attributes, each candidate
validated by the context's validator (`JoinContext.check_fd`), which reads
cached partitions of the lhs side and cached (lhs part, rhs) code pairs of
the rhs side and materializes no join rows. Each rejection leaves the agree
set of two violating join rows in the context, and a later candidate whose
lhs fits inside an agree set filed under its rhs is false on the join: it is
refuted without an implication check or a validation, and stays a survivor
exactly as a failed validation does. Candidates implied by previously
established dependencies are skipped; the implication pool holds only true
dependencies, so it never implies a refuted one. A lhs attribute is dropped
from the alphabet once it can no longer contribute.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .context import JoinContext
from .discovery import lattice_bits, next_lhs_level
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
    bitmask rules.

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
        # the extension may include join attributes: under outer padding an
        # lhs carrying them is not equivalent to its rewritten form
        others = [a for a in j_attrs if a != b]
        for size in range(1, len(others) + 1):
            for combo in combinations(others, size):
                ext = rules.mask(combo)
                if determines(ext, goal):
                    continue  # the extension alone already determines b
                if assume_all_anchored or determines(y_mask | ext, goal):
                    out.append((b, frozenset(combo)))
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
    anchors: list[tuple[str, frozenset[str]]],
    sigma_prior: FdSet,
    i_plausible_rhs: frozenset[str] | None = None,
) -> FdSet:
    """Mine dependencies with lhs from side I and anchored rhs from side J.

    Side I is the join's left input when `i_is_left`, else its right one.
    `anchors` are side J's (rhs, extension) pairs from `_anchors`, in
    side-local names; `sigma_prior` is everything already established, in
    join-result names.
    """
    instance_i = context.left if i_is_left else context.right
    i_map = context.lmap if i_is_left else context.rmap
    j_map = context.rmap if i_is_left else context.lmap
    # side I's lattice on bitmasks; each bit maps to its join-result name
    bits = lattice_bits(instance_i.attr_names)
    joined_name = {bit: i_map[a] for a, bit in bits.items()}
    everything = sum(bits.values())
    plausible = everything
    if i_plausible_rhs is not None:
        plausible = sum(bit for a, bit in bits.items() if a in i_plausible_rhs)
    # the same candidate as a mask over the context's join names
    join_bits = context.join_bits
    join_bit = {bit: join_bits[name] for bit, name in joined_name.items()}
    join_masks: dict[int, int] = {}
    out = FdSet()
    pool = FdSet(sigma_prior.as_set())  # the prior set plus every accepted candidate
    for b, ext in anchors:
        rhs = j_map[b]
        ext_mapped = frozenset(j_map[a] for a in ext)
        ext_mask = sum(join_bits[a] for a in ext_mapped)
        # a natural join maps both sides' key to one name, so the mapped lhs
        # can contain the rhs: such a candidate is trivial
        trivial = sum(bit for bit, name in joined_name.items() if name == rhs)
        # own join attributes stay in the alphabet: with outer padding a
        # dependency on them is not interchangeable with the other side's
        alphabet = everything
        level = [bits[a] for a in instance_i.attr_names]
        while level:
            survivors = []
            unblocked = 0
            for lhs_i in level:
                if lhs_i & trivial:
                    continue
                joined = join_masks.get(lhs_i)
                if joined is None:
                    joined = join_masks[lhs_i] = sum(
                        map(join_bit.__getitem__, mask_bits(lhs_i))
                    )
                # a counterexample refutes it, so the pool of true
                # dependencies cannot imply it and validation would fail
                if not context.refutes(joined | ext_mask, rhs):
                    lhs = frozenset(map(joined_name.__getitem__, mask_bits(lhs_i)))
                    cand = FunctionalDependency(lhs | ext_mapped, rhs)
                    if implies(pool, cand):
                        continue
                    if context.check_fd(cand):
                        out.add(cand, "mined")
                        pool.add(cand)
                        continue
                survivors.append(lhs_i)
                unblocked |= lhs_i
            alphabet &= plausible | unblocked
            level = [c for c in next_lhs_level(survivors) if not c & ~alphabet]
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
    Each side's anchors are computed once: their rhs names bound the other
    direction's alphabet, and they license this side's rhs candidates
    unless padding waives anchoring there. Neither direction adds what the
    prior set and the accepted candidates imply, but a later acceptance
    can make an earlier one redundant: the caller reduces the union of the
    prior set and this output once.
    """
    spec = context.spec
    if spec.kind in SEMI_KINDS:
        return FdSet()
    plausible: dict[str, frozenset[str]] = {}
    licensed: dict[str, list[tuple[str, frozenset[str]]]] = {}
    for side, inst, on, sigma in (
        ("left", context.left, spec.left_on, sigma_left),
        ("right", context.right, spec.right_on, sigma_right),
    ):
        found = _anchors(inst.attr_names, on, sigma)
        plausible[side] = frozenset(b for b, _ in found)
        if _padding_shadows_anchors(context, j_is_left=side == "left"):
            found = _anchors(inst.attr_names, on, sigma, assume_all_anchored=True)
        licensed[side] = found
    first = discover(
        context, i_is_left=True, anchors=licensed["right"], sigma_prior=sigma_prior,
        i_plausible_rhs=plausible["left"],
    )
    prior_plus = sigma_prior.union(first)
    second = discover(
        context, i_is_left=False, anchors=licensed["left"], sigma_prior=prior_plus,
        i_plausible_rhs=plausible["right"],
    )
    return first.union(second)
