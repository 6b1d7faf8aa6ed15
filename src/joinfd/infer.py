"""Stage 2: join dependencies obtained by transitivity through the join keys.

If some attribute set A of one side determines that side's join attributes,
and the other side's join attributes determine b, then A determines b on the
join, provided the join equates the two key column sets in that direction.
Inner joins equate them both ways; outer padding can break one or both
directions, which is checked on value pairs before a direction is used.

Determination is read through attribute closure, not syntactic membership,
since the input sets are covers. Inference only infers: no inferred lhs is
minimized here. An inferred A -> b has b anchored purely on the other side
(its join attributes determine b there), so every smaller A' -> b that
holds on the join is a stage-3 mining candidate under the anchor (b, {}),
which the level-wise walk judges before A; the pipeline's final
`remove_implied` then drops A -> b.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .context import JoinContext
from .discovery import walk
from .fds import (
    FdSet,
    FunctionalDependency,
    attribute_closure,
    compile_rules,
    remove_implied,
)
from .joins import SEMI_KINDS


@dataclass
class InferredFdSet:
    fds: FdSet
    provenance: dict[FunctionalDependency, tuple[str, str]] = field(default_factory=dict)


def _minimal_determiners(
    target: frozenset[str], fds: FdSet | Iterable[FunctionalDependency]
) -> list[frozenset[str]]:
    """Subset-minimal attribute sets whose closure covers `target`, by size
    and then names. Walked up from the empty set; a determiner ends its
    branch, since every superset of it determines `target` too."""
    rules = compile_rules(fds)
    universe = sorted({a for lhs in rules.rules for a in rules.names(lhs)} | target)
    goal = rules.mask(target)
    out: list[frozenset[str]] = []

    def verdict(cand: int) -> bool:
        if rules.closure(cand) & goal == goal:
            out.append(rules.names(cand))
            return True
        return False

    if not verdict(0):
        walk([rules.mask((a,)) for a in universe], verdict)
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out


def infer(
    x_attrs: Sequence[str],
    y_attrs: Sequence[str],
    sigma: FdSet,
    sigma_prime: FdSet,
    lhs_map: dict[str, str] | None = None,
    rhs_map: dict[str, str] | None = None,
) -> FdSet:
    """Transitivity products A -> b for A determining X and Y determining b.

    `sigma` lives on the side owning X, `sigma_prime` on the side owning Y.
    The maps carry each side's attribute names into the join schema; with
    the default identity maps, equal names denote the same (merged) column,
    so self-referential products are dropped as trivial.
    """
    lhs_map = lhs_map or {}
    rhs_map = rhs_map or {}
    x_set = frozenset(x_attrs)
    determiners = _minimal_determiners(x_set, sigma)
    reachable = attribute_closure(y_attrs, sigma_prime)
    out = FdSet()
    for lhs in determiners:
        mapped_lhs = frozenset(lhs_map.get(a, a) for a in lhs)
        for b in sorted(reachable):
            mapped_b = rhs_map.get(b, b)
            if mapped_b in mapped_lhs:
                continue
            out.add(FunctionalDependency(mapped_lhs, mapped_b))
    return out


def refine(inferred: FdSet) -> FdSet:
    """The inferred products less those the others imply; no validation.

    The name stays for this one reduction because the benchmark's tracer
    (`bench/spans.py`) traces `infer.refine`, and the tier-1 test
    `tests/test_bench_names.py` resolves every name it traces.
    """
    return remove_implied(inferred)


def infer_join_fds(
    context: JoinContext, sigma_left: FdSet, sigma_right: FdSet
) -> InferredFdSet:
    """Both inference directions, mapped into the join schema and reduced,
    every member tagged `inferred`.

    `sigma_left` / `sigma_right` are the per-side dependency sets mined on
    the join's row sets by upstaging, in side-local names.
    Semi-joins have single-sided schemas, so nothing can be inferred.
    """
    spec = context.spec
    if spec.kind in SEMI_KINDS:
        return InferredFdSet(FdSet())
    x_to_y, y_to_x = context.directions()
    collected = FdSet()
    provenance: dict[FunctionalDependency, tuple[str, str]] = {}
    for enabled, own_on, other_on, own_sigma, other_sigma, own_map, other_map in (
        (x_to_y, spec.left_on, spec.right_on, sigma_left, sigma_right,
         context.lmap, context.rmap),
        (y_to_x, spec.right_on, spec.left_on, sigma_right, sigma_left,
         context.rmap, context.lmap),
    ):
        if not enabled:
            continue
        own_names = [own_map[a] for a in own_on]
        other_names = [other_map[a] for a in other_on]
        for d in infer(own_on, other_on, own_sigma, other_sigma,
                       lhs_map=own_map, rhs_map=other_map):
            collected.add(d)
            provenance.setdefault(
                d,
                (
                    f"{','.join(sorted(d.lhs)) or '{}'} -> {','.join(own_names)}",
                    f"{','.join(other_names)} -> {d.rhs}",
                ),
            )
    result = FdSet()
    for d in refine(collected).as_set():
        result.add(d, "inferred")
    return InferredFdSet(result, {d: p for d, p in provenance.items() if d in result})
