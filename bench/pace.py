"""Machine-speed reference: rescales measured times to a fixed machine speed.

The benchmark runs on shared hosts whose speed swings by 20% or more over
tens of seconds, which is longer than a run, so no statistic over one run's
own timings can cancel it. A fixed pure-Python reference loop (dicts, sets,
tuples and frozensets, the kind of work joinfd does) is timed at the start
of every block of operations, at least every `INTERVAL_S` seconds. Each
operation's wall time is then divided by its block's speed factor: the
median loop time over the block and its neighbours, over `REFERENCE_S`,
the loop's time at the reference speed. On a 2-vCPU shared Linux host the
windowed joinfd times and loop times moved together with a correlation of
0.95, and their ratio spread 2.5 times less than the raw times did.

The rescaled figures are seconds at the reference speed, not wall seconds;
the benchmark prints the wall figures beside them.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# the reference loop's time at the reference machine speed (a 2-vCPU shared
# Linux host running Python 3.11 in a calm phase)
REFERENCE_S = 0.02
INTERVAL_S = 0.5
NEIGHBOURS = 2  # blocks on each side whose loop times share in a factor


def reference_loop() -> int:
    counts: dict[tuple[int, int], int] = {}
    groups = set()
    for i in range(20_000):
        key = (i % 997, i % 13)
        counts[key] = counts.get(key, 0) + 1
        groups.add(frozenset((i % 31, i % 7)))
    return len(counts) + len(groups)


class Pace:
    """Reference-loop times, one per block of operations."""

    def __init__(self) -> None:
        self.loop_s: list[float] = []
        self._opened = -INTERVAL_S

    def block(self) -> int:
        """The block for the next operation: a new one, opened by timing the
        reference loop, once `INTERVAL_S` has passed since the last."""
        if perf_counter() - self._opened >= INTERVAL_S:
            t0 = perf_counter()
            reference_loop()
            self._opened = perf_counter()
            self.loop_s.append(self._opened - t0)
        return len(self.loop_s) - 1

    def factor(self, block: int) -> float:
        """How much slower than the reference speed the machine ran `block`."""
        lo = max(0, block - NEIGHBOURS)
        return statistics.median(self.loop_s[lo:block + NEIGHBOURS + 1]) / REFERENCE_S

    def rescale(self, seconds: float, block: int) -> float:
        return seconds / self.factor(block)
