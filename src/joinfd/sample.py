"""The sampling strategy's stage 3, run right after stage 0: discovery from
micro-joins, whose mined set implies everything upstaging or inference
would add.

Representative join values are picked per side by walking the non-join
attributes in ascending distinct-value order (skipping the most diverse ones)
and keeping, for every attribute value, either the join values behind it or,
when there are more than `n_b`, the `n_b` first in a seeded permutation of
the shared join values. The permutation is computed once per selection and
read by both sides. Join values are the profile's group ids throughout.
Each side lays its candidate rows out once in that order, by sorting them
on their id's rank, labelled by that rank, so an attribute's picks are the
first `n_b` distinct labels per attribute value in one pass over its
column. The two sides' selections are intersected, and `join` pairs the
rows of the selected ids on the run's own profile, together with every row
an outer operator keeps dangling, copying no side first; exact dependencies
are mined from that micro-join. The dependencies discovered this way imply
the true join dependencies (tested with composite and null-bearing keys,
natural joins and all six operators); they are only exact themselves when
the sample happened to contain a counterexample pair for everything false,
so precision is measured, never assumed.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

from .context import JoinContext
from .discovery import discover_fds
from .errors import InputError, InternalInvariantError
from .fds import FdSet
from .joins import join
from .relation import Instance


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


def rank_order(values: Sequence[tuple], seed: int) -> list[int]:
    """Positions of the candidate join `values` in rank order: each value
    ranked once (`_rank`), with the value's own order as a tie-break only
    when two candidates share a crc32."""
    rank = [_rank(seed, v) for v in values]
    if len(set(rank)) < len(rank):  # a crc32 collision
        return sorted(
            range(len(rank)), key=lambda i: (rank[i], _value_sort_key(values[i]))
        )
    return sorted(range(len(rank)), key=rank.__getitem__)


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
    ids: Sequence[int],
    ranked: Sequence[int],
    cfg: SampleConfig,
) -> set[int]:
    """Group ids selected by the attribute tree of one side.

    `ids` gives each row of `instance` its group id, and `ranked` lists the
    candidate ids in rank order (`rank_order`); the tree reads only the
    rows of candidates. They are laid out once in rank order, by sorting
    them on their id's rank, each labelled by that rank, and every retained
    attribute keeps, per code, the first `n_b` distinct labels of that
    layout: all of a branch of at most `n_b` ids, else its `n_b` lowest
    ranked. A side whose tree would be empty, because it has no non-join
    attribute or `n_v` leaves out every one, selects every candidate, so
    that the other side's selection decides.
    """
    on_set = set(on)
    nonjoin = [a for a in instance.attr_names if a not in on_set]
    if len(nonjoin) <= cfg.n_v:
        return set(ranked)
    rank = dict(zip(ranked, range(len(ranked))))
    rank_of = list(map(rank.get, ids))  # None outside the candidates
    candidates = compress(range(len(ids)), map(rank.__contains__, ids))
    rows = sorted(candidates, key=rank_of.__getitem__)  # stable: ascending per id
    labels = list(map(rank_of.__getitem__, rows))
    codes = {
        a: list(map(instance.columns[instance.ordinal(a)].__getitem__, rows))
        for a in nonjoin
    }
    by_distinct = sorted(nonjoin, key=lambda a: (len(set(codes[a])), a))
    picked: set[int] = set()
    for attr in by_distinct[: len(by_distinct) - cfg.n_v]:
        picked.update(_first_labels(codes[attr], labels, cfg.n_b))
    return set(map(ranked.__getitem__, picked))


def selective_sampling(context: JoinContext, cfg: SampleConfig) -> set[int]:
    """Shared group ids selected on both sides, which both sides rank once
    together."""
    profile, spec = context.profile, context.spec
    ranked = rank_order(profile.values[: profile.n_shared], cfg.seed)
    picked_left = generate_ids_set(
        context.left, spec.left_on, profile.left_ids, ranked, cfg
    )
    picked_right = generate_ids_set(
        context.right, spec.right_on, profile.right_ids, ranked, cfg
    )
    return picked_left & picked_right


def micro_join_batch(
    context: JoinContext, cfg: SampleConfig
) -> tuple[Instance, FdSet]:
    """Select, join, and mine; one micro-join over the selected values.

    The micro-join is `join` on the run's profile, pairing only the rows of
    the selected shared ids. Rows an outer operator keeps dangling are part
    of that operator's semantics, not of the shared value space, so they
    always participate, even when no shared value was selected; the
    micro-join is therefore a sub-multiset of the full join result.
    Returns the micro-join and its dependencies as mined, each with a
    minimal lhs; the pipeline drops the implied members in one pass.

    On a join that is not empty the micro-join never is: both sides pick
    the top-ranked shared id, and with no shared id an outer join keeps
    its dangling rows. An empty one would report no dependencies at all,
    so it raises `InternalInvariantError`.
    """
    micro = join(
        context.left,
        context.right,
        context.spec,
        context.profile,
        selective_sampling(context, cfg),
    )
    context.counters.sample_join_rows += micro.row_count
    if micro.row_count == 0:
        raise InternalInvariantError(
            "sample micro-join is empty on a join with rows; refusing to report"
        )
    return micro, discover_fds(micro)


def discover_sampled(context: JoinContext, cfg: SampleConfig) -> FdSet:
    """Sampling stage entry point; returns mined dependencies tagged sampled."""
    _, fds = micro_join_batch(context, cfg)
    out = FdSet()
    for d in fds:
        out.add(d, "sampled")
    return out
