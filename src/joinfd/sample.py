"""Stage 4: sampling-based discovery from micro-joins.

Representative join values are picked per side by walking the non-join
attributes in ascending distinct-value order (skipping the most diverse ones)
and keeping, for every attribute value, either the single join value behind
it or a seeded choice of a few. The two sides' selections are intersected,
the selected rows joined, together with every row an outer operator keeps
dangling, and exact dependencies mined from that micro-join. The
dependencies discovered this way imply the true join dependencies (tested
with composite and null-bearing keys, natural joins and all six
operators); they are only exact themselves when the sample happened to
contain a counterexample pair for everything false, so precision is
measured, never assumed.
"""

from __future__ import annotations

import heapq
import zlib
from dataclasses import dataclass
from typing import Sequence

from .context import JoinContext
from .discovery import discover_fds
from .errors import InputError
from .fds import FdSet, remove_implied
from .joins import PADS_LEFT_ATTRS, PADS_RIGHT_ATTRS, join
from .relation import Instance, take_rows


@dataclass(frozen=True)
class SampleConfig:
    """Knobs of the selection tree.

    n_b: representative join values kept per multi-value branch.
    n_v: how many of the most-distinct attributes to leave out of the tree.
    seed: drives the per-branch representative choice.
    """

    n_b: int = 1
    n_v: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.n_b < 1:
            raise InputError(f"n_b must be positive, got {self.n_b}")
        if self.n_v < 0:
            raise InputError(f"n_v must be nonnegative, got {self.n_v}")


def _value_sort_key(value: tuple) -> tuple:
    return tuple((v is None, "" if v is None else v) for v in value)


def _rank(seed: int, value: tuple) -> int:
    """Position of a join value in the seeded pseudo-random permutation,
    up to crc32 ties, which `_value_sort_key` breaks.

    Keyed on the value itself, so both sides of a join rank shared values
    identically and their branch representatives tend to coincide.
    """
    return zlib.crc32(repr((seed, value)).encode())


def generate_ids_set(
    instance: Instance,
    on: Sequence[str],
    groups: dict[tuple, list[int]],
    cfg: SampleConfig,
) -> set[tuple]:
    """Join values selected by the attribute tree of one side.

    `groups` maps each candidate join value to the ids of the rows carrying
    it; the tree walks only those rows. Each candidate is ranked once
    (`_rank`, with the value's own order as a tie-break only when two
    candidates share a crc32), and a branch of more than `n_b` values
    keeps its `n_b` lowest ranked. A side whose tree would be empty,
    because it has no non-join attribute or `n_v` leaves out every one,
    selects every candidate value, so that the other side's selection
    decides.
    """
    on_set = set(on)
    nonjoin = [a for a in instance.attr_names if a not in on_set]
    if len(nonjoin) <= cfg.n_v:
        return set(groups)
    rows: list[int] = []
    labels: list[tuple] = []  # each row's join value
    for value, group in groups.items():
        rows += group
        labels += [value] * len(group)

    def distinct(attr: str) -> int:
        col = instance.columns[instance.ordinal(attr)]
        return len(set(map(col.__getitem__, rows)))

    ranked = sorted(nonjoin, key=lambda a: (distinct(a), a))
    retained = ranked[: len(ranked) - cfg.n_v]
    rank: dict[tuple, int | tuple] = {v: _rank(cfg.seed, v) for v in groups}
    if len(set(rank.values())) < len(rank):  # a crc32 collision
        rank = {v: (r, _value_sort_key(v)) for v, r in rank.items()}
    out: set[tuple] = set()
    for attr in retained:
        col = instance.columns[instance.ordinal(attr)]
        by_value: dict[int, list[tuple]] = {}
        for code, value in set(zip(map(col.__getitem__, rows), labels)):
            by_value.setdefault(code, []).append(value)
        for branch in by_value.values():
            if len(branch) > cfg.n_b:
                branch = heapq.nsmallest(cfg.n_b, branch, key=rank.__getitem__)
            out.update(branch)
    return out


def selective_sampling(context: JoinContext, cfg: SampleConfig) -> set[tuple]:
    """Join values selected on both sides, restricted to the shared ones."""
    profile, spec = context.profile, context.spec
    picked_left = generate_ids_set(
        context.left,
        spec.left_on,
        {v: profile.left_groups[v] for v in profile.shared},
        cfg,
    )
    picked_right = generate_ids_set(
        context.right,
        spec.right_on,
        {v: profile.right_groups[v] for v in profile.shared},
        cfg,
    )
    return picked_left & picked_right


def micro_join_batch(
    context: JoinContext, cfg: SampleConfig
) -> tuple[Instance | None, FdSet]:
    """Select, join, and mine; one micro-join over the selected values.

    The selected rows of both sides are joined with the real operator.
    Rows an outer operator keeps dangling are part of that operator's
    semantics, not of the shared value space, so they always participate,
    even when no shared value was selected; the micro-join is therefore a
    sub-multiset of the full join result. Returns the micro-join (None when
    it is empty) and the minimal cover of its dependencies.
    """
    ids = selective_sampling(context, cfg)
    spec, profile = context.spec, context.profile
    left_values = set(ids)
    right_values = set(ids)
    if spec.kind in PADS_RIGHT_ATTRS:
        left_values |= profile.dangling_left
    if spec.kind in PADS_LEFT_ATTRS:
        right_values |= profile.dangling_right
    li = take_rows(context.left, profile.rows("left", left_values))
    ri = take_rows(context.right, profile.rows("right", right_values))
    micro = join(li, ri, spec)
    context.counters.sample_join_rows += micro.row_count
    if micro.row_count == 0:
        context.warnings.append("sample micro-join is empty; no dependencies mined")
        return None, FdSet()
    fds, _ = discover_fds(micro)
    # every lhs is minimal on the micro-join: dropping implied members
    # leaves its minimal cover
    return micro, remove_implied(fds)


def discover_sampled(context: JoinContext, cfg: SampleConfig) -> FdSet:
    """Sampling stage entry point; returns mined dependencies tagged sampled."""
    _, cover = micro_join_batch(context, cfg)
    out = FdSet()
    for d in cover:
        out.add(d, "sampled")
    return out
