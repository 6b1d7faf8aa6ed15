"""Benchmark workloads: seeded pools of (left, right, spec) pairs.

Each workload stresses a different layer of joinfd, and each is the bypass
for another's optimisation:

- outer-dangling: outer joins with many dangling and repeated key values;
  the selective validator (`JoinContext.check_fd`) walking dangling and
  padded groups is most of the selective time. Small pairs, so that a run
  averages over many of them.
- wide-lattice: many two-valued attributes and few rows; the number of lhs
  candidates sets the cost (`fds` closure calls, partitions), not the
  number of rows. One domain size for every column keeps the candidate
  space alike from pair to pair, so a run's mean does not hinge on a few
  pairs; with 6 and 4 attributes the sampling strategy's cost varies from
  pair to pair a third as much, per second of run, as with 6 and 5.
- tall-inner: many rows, few attributes; row grouping in partitions and
  partial/full join materialization set the cost. Three attributes a side
  keep its closure calls under a tenth of wide-lattice's.
- tiny-corpus: thousands of tiny random pairs; fixed per-call overhead
  dominates, and it is the only workload with composite keys, natural
  joins, nulls, semi-joins and empty sides, so known defects show here as
  failed operations.

A run walks its pool whole at least once, so every run of a seed checks the
same operations. Each pool is sized so that one walk takes about 17 s on a
2-vCPU shared Linux host, two thirds of a 25-s run, which leaves room for a
slower machine; as many pairs as that allows, because the spread of a run's
figures from seed to seed shrinks with the number of distinct pairs. The
structural parameters of a pair (operator, row count) follow its index, so
every seed's pool has the same mix; the seed draws the data. The program
receives only the generated instances and specs.
"""

from __future__ import annotations

from typing import Callable

from joinfd.fixtures import FixtureProfile, make_fixture
from joinfd.joins import JoinKind, JoinSpec
from joinfd.relation import Instance

from corpus import tiny_corpus

Pair = tuple[Instance, Instance, JoinSpec]

OUTER_KINDS = (JoinKind.LEFT_OUTER, JoinKind.RIGHT_OUTER, JoinKind.FULL_OUTER)


def _pair_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def _outer_dangling(index: int) -> FixtureProfile:
    return FixtureProfile(
        left_rows=24,
        right_rows=24,
        left_attrs=4,
        right_attrs=4,
        dangling_fraction=0.3,
        duplicate_fraction=0.3,
        domain_low=3,
        domain_high=50,
        op=OUTER_KINDS[index % len(OUTER_KINDS)],
    )


def _wide_lattice(index: int) -> FixtureProfile:
    rows = (40, 45, 50)[index % 3]
    return FixtureProfile(
        left_rows=rows,
        right_rows=rows,
        left_attrs=6,
        right_attrs=4,
        dangling_fraction=0.3,
        duplicate_fraction=0.3,
        domain_low=2,
        domain_high=2,
    )


def _tall_inner(index: int) -> FixtureProfile:
    return FixtureProfile(
        left_rows=400,
        right_rows=400,
        left_attrs=3,
        right_attrs=3,
        dangling_fraction=0.3,
        duplicate_fraction=0.3,
        domain_low=3,
        domain_high=200,
    )


def _fixture_pool(profile_for: Callable[[int], FixtureProfile], size: int):
    def build(seed: int) -> list[Pair]:
        return [make_fixture(profile_for(i), _pair_seed(seed, i)) for i in range(size)]

    return build


# workload name -> pool builder taking the seed
WORKLOADS: dict[str, Callable[[int], list[Pair]]] = {
    "outer-dangling": _fixture_pool(_outer_dangling, 162),
    "wide-lattice": _fixture_pool(_wide_lattice, 45),
    "tall-inner": _fixture_pool(_tall_inner, 81),
    "tiny-corpus": lambda seed: tiny_corpus(seed, 3500),
}
