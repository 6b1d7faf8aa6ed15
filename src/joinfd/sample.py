"""Stage 4: sampling-based discovery from micro-joins.

Representative join values are picked per side by walking the non-join
attributes in ascending distinct-value order (skipping the most diverse ones)
and keeping, for every attribute value, either the join values behind it or,
when there are more than `n_b`, the `n_b` first in a seeded permutation of
the shared join values. The permutation is computed once per selection and
read by both sides. Each side lays its candidate rows out once in that
order, labelled by their value's position, so an attribute's picks are the
first `n_b` distinct labels per attribute value in one pass over its
column. The two sides' selections are intersected, the selected rows
joined, together with every row an outer operator keeps dangling, and
exact dependencies mined from that micro-join. The dependencies discovered
this way imply the true join dependencies (tested with composite and
null-bearing keys, natural joins and all six operators); they are only
exact themselves when the sample happened to contain a counterexample pair
for everything false, so precision is measured, never assumed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Mapping, Sequence

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


def rank_order(values: Iterable[tuple], seed: int) -> list[tuple]:
    """Candidate join values in rank order: each ranked once (`_rank`),
    with the value's own order as a tie-break only when two candidates
    share a crc32."""
    rank = {v: _rank(seed, v) for v in values}
    if len(set(rank.values())) < len(rank):  # a crc32 collision
        return sorted(rank, key=lambda v: (rank[v], _value_sort_key(v)))
    return sorted(rank, key=rank.__getitem__)


def _first_labels(codes: Sequence[int], labels: Sequence[int], n_b: int) -> list[int]:
    """Per code, the first `n_b` distinct labels it meets, in the order of
    the nondecreasing `labels`."""
    kept: list[int] = []
    seen: dict[int, int] = {}
    for code, label in dict.fromkeys(zip(codes, labels)):  # distinct, in order
        k = seen.get(code, 0)
        if k < n_b:
            seen[code] = k + 1
            kept.append(label)
    return kept


def generate_ids_set(
    instance: Instance,
    on: Sequence[str],
    ranked: Sequence[tuple],
    groups: Mapping[tuple, Sequence[int]],
    cfg: SampleConfig,
) -> set[tuple]:
    """Join values selected by the attribute tree of one side.

    `ranked` lists the candidate join values in rank order (`rank_order`)
    and `groups` maps each to the ids of the rows carrying it; the tree
    reads only those rows. They are laid out once in rank order, each
    labelled by its value's position there, and every retained attribute
    keeps, per code, the first `n_b` distinct labels of that layout: all
    of a branch of at most `n_b` values, else its `n_b` lowest ranked. A
    side whose tree would be empty, because it has no non-join attribute
    or `n_v` leaves out every one, selects every candidate value, so that
    the other side's selection decides.
    """
    on_set = set(on)
    nonjoin = [a for a in instance.attr_names if a not in on_set]
    if len(nonjoin) <= cfg.n_v:
        return set(ranked)
    members = list(map(groups.__getitem__, ranked))
    rows = list(chain.from_iterable(members))
    sizes = map(len, members)
    labels = list(chain.from_iterable(map(repeat, range(len(ranked)), sizes)))
    codes = {
        a: list(map(instance.columns[instance.ordinal(a)].__getitem__, rows))
        for a in nonjoin
    }
    by_distinct = sorted(nonjoin, key=lambda a: (len(set(codes[a])), a))
    picked: set[int] = set()
    for attr in by_distinct[: len(by_distinct) - cfg.n_v]:
        picked.update(_first_labels(codes[attr], labels, cfg.n_b))
    return set(map(ranked.__getitem__, picked))


def selective_sampling(context: JoinContext, cfg: SampleConfig) -> set[tuple]:
    """Join values selected on both sides, restricted to the shared ones,
    which both sides rank once together."""
    profile, spec = context.profile, context.spec
    ranked = rank_order(profile.shared, cfg.seed)
    picked_left = generate_ids_set(
        context.left, spec.left_on, ranked, profile.left_groups, cfg
    )
    picked_right = generate_ids_set(
        context.right, spec.right_on, ranked, profile.right_groups, cfg
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
    # every lhs is minimal on the micro-join: dropping implied members
    # leaves its minimal cover
    return micro, remove_implied(discover_fds(micro))


def discover_sampled(context: JoinContext, cfg: SampleConfig) -> FdSet:
    """Sampling stage entry point; returns mined dependencies tagged sampled."""
    _, cover = micro_join_batch(context, cfg)
    out = FdSet()
    for d in cover:
        out.add(d, "sampled")
    return out
