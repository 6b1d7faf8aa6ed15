"""joinfd benchmark: seeded workloads through all three strategies.

    python3 bench/run.py --workload outer-dangling --seed 1 --seconds 25 --trace 0

Run from the repository root. Set-up generates the workload's pool of table
pairs from the seed (timed as `setup_s`: the median of at least five
set-ups that together take at least two seconds). The measurement then
walks the pool, whole at least once and then on until `--seconds` have
passed; for each pair it runs `pipeline.run_pipeline` with the oracle,
selective and sampling strategies and checks every answer against the
oracle's. An operation is one strategy on one pair of the pool: it counts
once in `attempted` however often the walk reaches it, fails if any of its
runs failed, and is timed by the median of its runs. Every run of an
operation is under a deadline kept by a `SIGALRM` timer in this thread. A
failed operation (an exception, an answer that disagrees with the oracle,
an oracle failure on its pair, or a deadline overrun) is counted and
categorised, never raised. Time per strategy is seconds per correct answer;
the selective latency percentiles in the JSON are over correct answers,
and the table also gives them over every operation with failures ranked
slower than any success.

The times in the JSON are rescaled to a reference machine speed by
`pace.Pace` (see there); the table gives the wall-clock figures beside
them.

With `--trace 0` the end-to-end metrics are reported, with no tracing
wrapper installed (this is checked before every operation). With
`--trace 1` every operation runs twice, untraced and then traced, and the
per-layer metrics come from the traced copy; the difference between the
two is the tracing overhead, and the folded span tree is written to
`.bench_out/`.

A human-readable table goes to standard output, and the last line of
standard output is one JSON object: `correct` (every answer was checked
against an oracle answer that itself held on the materialised join, and,
when traced, the trace agreed with the untraced run), `attempted`,
`failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import signal
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from joinfd import pipeline  # noqa: E402
from joinfd.discovery import holds  # noqa: E402
from joinfd.fds import closure_equal  # noqa: E402
from joinfd.joins import join  # noqa: E402
from joinfd.metrics import evaluate  # noqa: E402

from layers import LAYER_METRICS  # noqa: E402
from pace import Pace  # noqa: E402
from spans import SpanTotals, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

STRATEGIES = ("oracle", "selective", "sampling")
DEADLINE_S = 10.0
# set-up is repeated at least this often and for at least this long (median
# reported): one set-up of a small pool takes tens of milliseconds, too
# short to be steady on its own
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
SETUP_MAX_REPEATS = 100
OUT_DIR = ROOT / ".bench_out"


class DeadlineExceeded(BaseException):
    """Raised by the SIGALRM handler; a BaseException so no handler in the
    program under test can swallow it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded


def _category(exc: BaseException) -> str:
    head = str(exc).split(":", 1)[0].strip()[:60]
    return f"{type(exc).__name__}: {head}" if head else type(exc).__name__


def run_op(pair, strategy: str):
    """One pipeline call under the deadline: (seconds, report or None, failure)."""
    left, right, spec = pair
    try:
        t0 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
        try:
            report = pipeline.run_pipeline(left, right, spec, strategy=strategy)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        return perf_counter() - t0, report, None
    except DeadlineExceeded:
        return perf_counter() - t0, None, "deadline"
    except Exception as exc:  # the run must go on; the failure is recorded
        return perf_counter() - t0, None, _category(exc)


def materialized_rows(report) -> int:
    c = report.counters
    return c.partial_join_rows + c.sample_join_rows + c.full_join_rows


class Outcomes:
    """Per-operation runs, failure categories and answers.

    An operation is one strategy on one pair of the pool. Each run keeps
    its wall seconds and the `Pace` block it ran in; an operation's failure
    is the category of its first failed run.
    """

    def __init__(self, pool_size: int) -> None:
        self.runs = {s: [[] for _ in range(pool_size)] for s in STRATEGIES}
        self.failure = {s: [None] * pool_size for s in STRATEGIES}
        self.precision: dict[int, float] = {}  # pair index -> sampling precision
        self.problems: list[str] = []  # failed self-checks of the benchmark
        self._sound: set[int] = set()

    def record_pair(self, index: int, pair, results: dict, block: int) -> None:
        """Check one pair's three answers against the oracle and record them."""
        oracle = results["oracle"][1]
        if oracle is not None and index not in self._sound:
            self._sound.add(index)
            if not oracle_holds(pair, oracle):
                self.problems.append(f"pair {index}: an oracle dependency does "
                                     "not hold on the materialised join")
        for strategy in STRATEGIES:
            seconds, report, failure = results[strategy]
            self.runs[strategy][index].append((seconds, block))
            if failure is None and strategy != "oracle":
                if oracle is None:
                    failure = "oracle-failed"
                elif strategy == "selective":
                    if not closure_equal(report.fds, oracle.fds):
                        failure = "wrong-output"
                else:
                    scores = evaluate(report.fds, oracle.fds)
                    self.precision[index] = scores.precision
                    if scores.recall < 1:
                        failure = "wrong-output"
            if failure is not None and self.failure[strategy][index] is None:
                self.failure[strategy][index] = failure

    def seconds(self, strategy: str, pace: Pace | None = None) -> list[float]:
        """Per operation, the median of its runs' wall seconds, or of their
        seconds at the reference speed when `pace` is given."""
        return [
            statistics.median(pace.rescale(t, b) if pace else t for t, b in runs)
            for runs in self.runs[strategy]
        ]

    def ok(self, strategy: str) -> list[bool]:
        return [f is None for f in self.failure[strategy]]

    def categories(self, strategy: str) -> Counter:
        return Counter(f for f in self.failure[strategy] if f is not None)

    def attempted(self) -> int:
        return sum(len(v) for v in self.failure.values())

    def failed(self) -> int:
        return sum(sum(self.categories(s).values()) for s in STRATEGIES)


def oracle_holds(pair, report) -> bool:
    """Every oracle dependency holds on the materialised join."""
    joined = join(*pair)
    return all(holds(joined, d) for d in report.fds)


def tail_rank(n: int) -> int:
    """Index of the highest percentile, at most p99, with 10 samples beyond
    it; with too few samples for that, the median."""
    return max(min(math.ceil(0.99 * n), n - 10), math.ceil(0.5 * n)) - 1


def per_answer_seconds(seconds: list[float], ok: list[bool]) -> float:
    answered = sum(ok)
    if answered == 0:  # nothing answered: rank every failure at the deadline
        return DEADLINE_S * len(seconds)
    return sum(seconds) / answered


def end_to_end(out: Outcomes, setup_s: list[float], pace: Pace | None) -> dict:
    """The end-to-end metrics; times at the reference speed when `pace` is
    given, else wall times."""
    metrics = {
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
    }
    for s in ("selective", "sampling", "oracle"):
        seconds = out.seconds(s, pace)
        metrics[f"{s}_s"] = (per_answer_seconds(seconds, out.ok(s)), "s", len(seconds))
    lat = sorted(t for t, ok in zip(out.seconds("selective", pace), out.ok("selective"))
                 if ok) or [DEADLINE_S]
    metrics["selective_p50_ms"] = (1000 * statistics.median(lat), "ms", len(lat))
    metrics["selective_p99_ms"] = (1000 * lat[tail_rank(len(lat))], "ms", len(lat))
    attempted = out.attempted()
    metrics["ok_share"] = (1 - out.failed() / attempted, "ratio", attempted)
    precision = statistics.fmean(out.precision.values()) if out.precision else 0.0
    metrics["sampling_precision"] = (precision, "ratio", len(out.precision))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["peak_rss_mb"] = (peak_mb, "MB", 1)
    return metrics


class TracedCopies:
    """The traced half of a `--trace 1` run.

    Each operation is run a second time with the wrappers installed; its
    spans are folded into per-strategy totals, and its answer, failure and
    materialised rows are checked against the untraced run.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.totals = {s: SpanTotals(tracer) for s in STRATEGIES}
        self.sums = {s: Counter() for s in STRATEGIES}

    def run(self, pair, strategy: str, untraced, problems: list[str]) -> None:
        self.tracer.install()
        try:
            seconds, report, failure = run_op(pair, strategy)
        finally:
            self.tracer.uninstall()
        spans = self.tracer.collect(self.totals[strategy])
        sums = self.sums[strategy]
        sums["ops"] += 1
        sums["untraced_s"] += untraced[0]
        sums["traced_s"] += seconds
        sums["self_s"] += spans.self_s
        sums["rows"] += spans.join_rows
        _, u_report, u_failure = untraced
        if spans.min_self_s < -1e-6:
            problems.append(f"{strategy}: a span outlived its parent")
        if "deadline" in (failure, u_failure):
            return
        if failure != u_failure:
            problems.append(f"{strategy}: traced run failed as {failure!r}, "
                            f"untraced as {u_failure!r}")
        elif report is not None:
            if report.fds.as_set() != u_report.fds.as_set():
                problems.append(f"{strategy}: traced answer differs from untraced")
            if spans.join_rows != materialized_rows(report):
                problems.append(f"{strategy}: traced join rows {spans.join_rows} != "
                                f"report counters {materialized_rows(report)}")

    def check_self_times(self, problems: list[str]) -> None:
        """Self times must add up to the untraced strategy time, give or take
        the tracing overhead and timing noise (2% plus 1 ms per operation)."""
        for s, sums in self.sums.items():
            overhead = sums["traced_s"] - sums["untraced_s"]
            noise = 0.02 * sums["untraced_s"] + 0.001 * sums["ops"]
            if abs(sums["self_s"] - sums["untraced_s"]) > abs(overhead) + noise:
                problems.append(f"{s}: self times {sums['self_s']:.3f} s vs untraced "
                                f"{sums['untraced_s']:.3f} s, overhead {overhead:.3f} s")

    def metrics(self) -> dict:
        metrics = {}
        for name, unit, strategies, read in LAYER_METRICS:
            for s in strategies:
                ops = self.sums[s]["ops"]
                metrics[f"{s}.{name}"] = (read(self.totals[s], ops, self.sums[s]), unit, ops)
        return metrics


def measure(build_pool, seed: int, seconds: float, copies: TracedCopies | None,
            tracer: Tracer, pace: Pace):
    """Set up, then walk the pool, whole at least once, until `seconds`
    have passed. Return the outcomes, the set-up runs as (seconds, pace
    block), the pool size, the number of pairs walked and the walk's wall
    seconds."""
    setup = []
    reps, min_s = (1, 0.0) if copies else (SETUP_REPEATS, SETUP_SECONDS)
    while len(setup) < reps or (sum(t for t, _ in setup) < min_s
                                and len(setup) < SETUP_MAX_REPEATS):
        pool = None  # every set-up starts from the same heap
        gc.collect()
        block = pace.block()
        t0 = perf_counter()
        pool = build_pool(seed)
        setup.append((perf_counter() - t0, block))
    out = Outcomes(len(pool))
    gc.collect()
    gc.freeze()
    tracer.assert_no_wrapper_anywhere()
    signal.signal(signal.SIGALRM, _on_alarm)
    start = perf_counter()
    walked = 0
    while walked < len(pool) or perf_counter() - start < seconds:
        index = walked % len(pool)
        pair = pool[index]
        block = pace.block()
        results = {}
        for strategy in STRATEGIES:
            tracer.assert_original()
            results[strategy] = run_op(pair, strategy)
            if copies:
                copies.run(pair, strategy, results[strategy], out.problems)
        out.record_pair(index, pair, results, block)
        walked += 1
    walk_s = perf_counter() - start
    tracer.assert_no_wrapper_anywhere()
    return out, setup, len(pool), walked, walk_s


def write_spans(workload: str, seed: int, copies: TracedCopies) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    doc = {s: {"ops": copies.sums[s]["ops"], "tree": copies.totals[s].tree()}
           for s in STRATEGIES}
    path.write_text(json.dumps(doc, indent=1))
    return path


def print_table(title: str, metrics: dict) -> None:
    print(title)
    width = max(len(k) for k in metrics)
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<{width}}  {value:>14.6g} {unit:<9} n={n}")


def print_failures(out: Outcomes) -> None:
    for s in STRATEGIES:
        categories = out.categories(s)
        print(f"  {s}: {sum(categories.values())} of {len(out.failure[s])} "
              "operations failed")
        for category, count in categories.most_common():
            print(f"    {count:>6}  {category}")


def print_latency_all_ops(out: Outcomes, pace: Pace) -> None:
    """Selective latency with every failure ranked slower than any success."""
    ok = out.ok("selective")
    lat = sorted(t for t, good in zip(out.seconds("selective", pace), ok) if good)
    n = len(ok)
    for label, rank in (("p50", math.ceil(0.5 * n) - 1), ("tail", tail_rank(n))):
        value = f"{1000 * lat[rank]:.3f} ms" if rank < len(lat) else "unbounded"
        print(f"  selective {label} over all {n} operations "
              f"(rank {rank + 1}): {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tracer = Tracer()
    copies = TracedCopies(tracer) if args.trace else None
    pace = Pace()
    out, setup, pool_size, walked, walk_s = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, copies, tracer, pace
    )
    print(f"workload {args.workload}, seed {args.seed}: walked {walked} pairs "
          f"of a pool of {pool_size} in {walk_s:.1f} s, deadline {DEADLINE_S:g} s per run")
    print_failures(out)
    if copies:
        copies.check_self_times(out.problems)
        metrics = copies.metrics()
        print(f"  {len(tracer.sites)} rebinding sites, "
              f"{len(tracer.methods)} JoinContext methods traced")
        print_table("per-layer metrics (per traced operation):", metrics)
        path = write_spans(args.workload, args.seed, copies)
        print(f"  span totals written to {path}")
    else:
        wall = end_to_end(out, [t for t, _ in setup], None)
        metrics = end_to_end(out, [pace.rescale(t, b) for t, b in setup], pace)
        speed = statistics.median(pace.factor(b) for b in range(len(pace.loop_s)))
        print_latency_all_ops(out, pace)
        print_table(f"end-to-end metrics in wall time (machine {speed:.3f}x "
                    "slower than the reference speed):", wall)
        print_table("end-to-end metrics at the reference speed:", metrics)
        ratio = metrics["selective_s"][0] / metrics["oracle_s"][0]
        print(f"  selective_s / oracle_s = {ratio:.3f} (derived, not a metric)")
    for p in out.problems:
        print(f"  CHECK FAILED: {p}")
    print(json.dumps({
        "correct": not out.problems,
        "attempted": out.attempted(),
        "failed": out.failed(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
