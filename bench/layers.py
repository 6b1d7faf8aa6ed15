"""Per-layer metrics read from the folded span totals of a traced run.

Every count and time is per traced operation of the strategy named in the
metric's prefix. Each group notes the end-to-end metric it should move. A
metric is listed only for the strategies that reach its code, and no time
is listed that reads zero on some workload (partial joins, for one, are
counted but not timed: the wide-lattice workload builds none, and the
selective strategy calls `join` only from inside `partial_join`).
"""

from __future__ import annotations

S, M, O = "selective", "sampling", "oracle"
SM, SMO = (S, M), (S, M, O)

MINE = "mine.discover"
ORACLE = "oracle.oracle_join_fds"
RUN = "pipeline.run_pipeline"


def _per_op(x, ops):
    return x / ops if ops else 0.0


def _ratio(a, b):
    return a / b if b else 0.0


def calls(name, under=None, parent=None):
    return lambda t, ops, st: _per_op(t.calls(name, under, parent), ops)


def busy(name, under=None, parent=None):
    return lambda t, ops, st: _per_op(t.busy(name, under, parent), ops)


def self_time(*names):
    return lambda t, ops, st: _per_op(sum(t.self_time(n) for n in names), ops)


def value(name, under=None, parent=None):
    return lambda t, ops, st: _per_op(t.value(name, under, parent), ops)


def true_share(name):
    return lambda t, ops, st: _ratio(t.value(name), t.calls(name))


def us_per_call(name):
    return lambda t, ops, st: 1e6 * _ratio(t.busy(name), t.calls(name))


def ns_per_row(name):
    return lambda t, ops, st: 1e9 * _ratio(t.busy(name), t.value(name))


def overhead(t, ops, st):
    return _per_op(st["traced_s"] - st["untraced_s"], ops)


# (metric name, unit, strategies it is reported for, reader)
LAYER_METRICS = (
    # selective mining and its validator -> selective_s
    ("context.check_fd.calls", "count/op", (S,), calls("context.check_fd")),
    ("context.check_fd.busy_s", "s/op", (S,), busy("context.check_fd")),
    ("context.check_fd.us_per_call", "us", (S,), us_per_call("context.check_fd")),
    ("context.check_fd.accept_ratio", "ratio", (S,), true_share("context.check_fd")),
    ("mine.busy_s", "s/op", (S,), busy("mine.discover_selective")),
    ("mine.self_s", "s/op", (S,), self_time("mine.discover_selective", MINE)),
    ("mine.pruned", "count/op", (S,), value("fds.implies", under=MINE)),
    ("mine.validated", "count/op", (S,), calls("context.check_fd", under=MINE)),
    ("mine.accepted", "count/op", (S,), value("context.check_fd", under=MINE)),
    # rows of every join and partial join result: the frugality count, equal
    # to the report's materialisation counters (checked per operation)
    ("rows", "rows/op", SM, lambda t, ops, st: _per_op(st["rows"], ops)),
    # partial joins and inference -> selective_s
    ("context.partial.builds", "count/op", SM,
     calls("joins.partial_join", under="context.partial")),
    ("context.partial.rows", "rows/op", SM,
     value("joins.partial_join", under="context.partial")),
    ("context.holds_on_join.calls", "count/op", SM, calls("context.holds_on_join")),
    ("joins.partial_join.calls", "count/op", SM, calls("joins.partial_join")),
    ("joins.partial_join.rows_out", "rows/op", SM, value("joins.partial_join")),
    ("infer.busy_s", "s/op", SM, busy("infer.infer_join_fds")),
    ("infer.refine_s", "s/op", SM, busy("infer.refine")),
    # dependency logic -> selective_s, oracle_s
    ("fds.attribute_closure.calls", "count/op", SMO, calls("fds.attribute_closure")),
    ("fds.attribute_closure.busy_s", "s/op", SMO, busy("fds.attribute_closure")),
    ("fds.implies.calls", "count/op", SMO, calls("fds.implies")),
    ("fds.implies.busy_s", "s/op", SMO, busy("fds.implies")),
    ("fds.implies.hit_ratio", "ratio", SMO, true_share("fds.implies")),
    ("fds.minimal_cover.busy_s", "s/op", (M, O), busy("fds.minimal_cover")),
    ("fds.remove_implied.busy_s", "s/op", SMO, busy("fds.remove_implied")),
    # partitions and lattice discovery -> oracle_s, sampling_s
    ("partition.build_partition.calls", "count/op", SMO,
     calls("partition.build_partition")),
    ("partition.build_partition.busy_s", "s/op", SMO,
     busy("partition.build_partition")),
    ("partition.build_partition.rows_in", "rows/op", SMO,
     value("partition.build_partition")),
    ("partition.build_partition.ns_per_row", "ns/row", SMO,
     ns_per_row("partition.build_partition")),
    ("discovery.discover_fds.calls", "count/op", SMO, calls("discovery.discover_fds")),
    ("discovery.discover_fds.busy_s", "s/op", SMO, busy("discovery.discover_fds")),
    ("discovery.discover_fds.self_s", "s/op", SMO,
     self_time("discovery.discover_fds")),
    ("discovery.discover_new_fds.calls", "count/op", SM,
     calls("discovery.discover_new_fds")),
    ("discovery.discover_new_fds.busy_s", "s/op", SM,
     busy("discovery.discover_new_fds")),
    ("discovery.holds.calls", "count/op", SM, calls("discovery.holds")),
    ("discovery.holds.busy_s", "s/op", SM, busy("discovery.holds")),
    ("pipeline.single_tables_s", "s/op", SMO,
     busy("discovery.discover_fds", parent=RUN)),
    ("upstage.busy_s", "s/op", SM, busy("upstage.upstage")),
    # full joins and the oracle -> oracle_s, peak_rss_mb
    ("joins.join.calls", "count/op", (M, O), calls("joins.join")),
    ("joins.join.rows_out", "rows/op", (M, O), value("joins.join")),
    ("joins.join.busy_s", "s/op", (M, O), busy("joins.join")),
    ("oracle.busy_s", "s/op", (O,), busy(ORACLE)),
    ("oracle.join_s", "s/op", (O,), busy("joins.join", under=ORACLE)),
    ("oracle.discover_s", "s/op", (O,), busy("discovery.discover_fds", under=ORACLE)),
    ("oracle.cover_s", "s/op", (O,), busy("fds.minimal_cover", under=ORACLE)),
    # sampling -> sampling_s, sampling_precision
    ("sample.busy_s", "s/op", (M,), busy("sample.discover_sampled")),
    ("sample.micro_join_batch.busy_s", "s/op", (M,), busy("sample.micro_join_batch")),
    ("sample.rows", "rows/op", (M,), value("joins.join", under="sample.micro_join_batch")),
    # fixed per-call cost -> selective_p50_ms, selective_p99_ms
    ("pipeline.context_s", "s/op", SMO, busy("context.JoinContext", parent=RUN)),
    ("pipeline.coverage_s", "s/op", SMO, busy("joins.coverage", parent=RUN)),
    ("pipeline.self_s", "s/op", SMO, self_time(RUN)),
    ("joins.join_profile.busy_s", "s/op", SMO, busy("joins.join_profile")),
    # cost of tracing itself
    ("trace.overhead_s", "s/op", SMO, overhead),
)
