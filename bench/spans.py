"""Outside-in tracing of joinfd: wrappers installed from the benchmark only.

`Tracer.install` rebinds every module-level name in `joinfd.*` that refers
to one of the traced functions, and replaces the traced `JoinContext`
methods, with wrappers that record a span per call: name, parent span,
start, end and one integer (a boolean result, or a row count). Spans of one
operation stay in memory; `Tracer.collect` folds them into per-strategy
totals keyed by (name, parent name, set of ancestor names), from which self
time (duration minus the time covered by child spans) and per-caller
attribution are read. `Tracer.uninstall` restores every original;
`Tracer.assert_original` and `Tracer.assert_no_wrapper_anywhere` check that
no wrapper is left behind.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import joinfd
from joinfd.context import JoinContext


def _truth(args, result) -> int:
    return 1 if result else 0


def _rows_out(args, result) -> int:
    return result.row_count


def _rows_in(args, result) -> int:
    return args[0].row_count


# (module, function, span name, value recorded per call)
FUNCTIONS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("pipeline", "run_pipeline", "pipeline.run_pipeline", None),
    ("joins", "join", "joins.join", _rows_out),
    ("joins", "partial_join", "joins.partial_join", _rows_out),
    ("joins", "join_profile", "joins.join_profile", None),
    ("joins", "coverage", "joins.coverage", None),
    ("upstage", "upstage", "upstage.upstage", None),
    ("infer", "infer_join_fds", "infer.infer_join_fds", None),
    ("infer", "refine", "infer.refine", None),
    ("mine", "discover_selective", "mine.discover_selective", None),
    ("mine", "discover", "mine.discover", None),
    ("sample", "discover_sampled", "sample.discover_sampled", None),
    ("sample", "micro_join_batch", "sample.micro_join_batch", None),
    ("oracle", "oracle_join_fds", "oracle.oracle_join_fds", None),
    ("discovery", "discover_fds", "discovery.discover_fds", None),
    ("discovery", "discover_new_fds", "discovery.discover_new_fds", None),
    ("discovery", "holds", "discovery.holds", None),
    ("partition", "build_partition", "partition.build_partition", _rows_in),
    ("fds", "attribute_closure", "fds.attribute_closure", None),
    ("fds", "implies", "fds.implies", _truth),
    ("fds", "minimal_cover", "fds.minimal_cover", None),
    ("fds", "remove_implied", "fds.remove_implied", None),
)

# (JoinContext method, span name, value recorded per call)
METHODS: tuple[tuple[str, str, Callable | None], ...] = (
    ("__init__", "context.JoinContext", None),
    ("check_fd", "context.check_fd", _truth),
    ("partial", "context.partial", None),
    ("holds_on_join", "context.holds_on_join", None),
    ("side_subinstance", "context.side_subinstance", None),
    ("directions", "context.directions", None),
)


def _joinfd_modules() -> list:
    for info in pkgutil.iter_modules(joinfd.__path__):
        importlib.import_module(f"joinfd.{info.name}")
    return [
        m
        for name, m in sorted(sys.modules.items())
        if name == "joinfd" or name.startswith("joinfd.")
    ]


class Tracer:
    """Span recorder whose wrappers exist only between install and uninstall."""

    def __init__(self) -> None:
        self.names: list[str] = [n for _, _, n, _ in FUNCTIONS]
        self.names += [n for _, n, _ in METHODS]
        self.ids = {n: i for i, n in enumerate(self.names)}
        # per-span columns of the operation being recorded
        self._name: list[int] = []
        self._parent: list[int] = []
        self._start: list[float] = []
        self._end: list[float] = []
        self._value: list[int] = []
        self._nested: list[bool] = []
        self._stack: list[int] = [-1]
        self._depth: list[int] = [0] * len(self.names)

        # keyed by id(), since functions are compared by identity
        self._wrapper_of: dict[int, Callable] = {}
        for module, func, span, value_fn in FUNCTIONS:
            fn = getattr(importlib.import_module(f"joinfd.{module}"), func)
            self._wrapper_of[id(fn)] = self._wrap(fn, self.ids[span], value_fn)
        self._wrapper_ids = {id(w) for w in self._wrapper_of.values()}
        # every module-level name in joinfd.* bound to a traced function
        self.sites = [
            (module, attr, value)
            for module in _joinfd_modules()
            for attr, value in vars(module).items()
            if id(value) in self._wrapper_of
        ]
        self.methods = [
            (meth, JoinContext.__dict__[meth],
             self._wrap(JoinContext.__dict__[meth], self.ids[span], value_fn))
            for meth, span, value_fn in METHODS
        ]

    # -- wrappers --------------------------------------------------------

    def _wrap(self, fn, name_id: int, value_fn):
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        values, nested, stack, depth = self._value, self._nested, self._stack, self._depth

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            nested.append(depth[name_id] > 0)
            starts.append(0.0)
            ends.append(0.0)
            values.append(0)
            depth[name_id] += 1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
                depth[name_id] -= 1
            if value_fn is not None:
                values[idx] = value_fn(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        self._reset()
        for module, attr, fn in self.sites:
            setattr(module, attr, self._wrapper_of[id(fn)])
        for meth, _, wrapper in self.methods:
            setattr(JoinContext, meth, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in self.sites:
            setattr(module, attr, fn)
        for meth, original, _ in self.methods:
            setattr(JoinContext, meth, original)

    def assert_original(self) -> None:
        """Raise unless every traced binding is the original function."""
        for module, attr, fn in self.sites:
            if getattr(module, attr) is not fn:
                raise RuntimeError(f"{module.__name__}.{attr} is not the original")
        for meth, original, _ in self.methods:
            if JoinContext.__dict__[meth] is not original:
                raise RuntimeError(f"JoinContext.{meth} is not the original")

    def assert_no_wrapper_anywhere(self) -> None:
        """Raise if any module-level name in joinfd.* is a trace wrapper."""
        self.assert_original()
        for module in _joinfd_modules():
            for attr, value in vars(module).items():
                if id(value) in self._wrapper_ids:
                    raise RuntimeError(f"{module.__name__}.{attr} is a trace wrapper")

    def _reset(self) -> None:
        for column in (self._name, self._parent, self._start, self._end,
                       self._value, self._nested):
            column.clear()
        del self._stack[1:]
        self._depth[:] = [0] * len(self.names)

    # -- folding ---------------------------------------------------------

    def collect(self, totals: "SpanTotals") -> "OpSpans":
        """Fold the recorded operation into `totals`; return its summary."""
        names, parents = self._name, self._parent
        n = len(names)
        dur = [e - s for s, e in zip(self._start, self._end)]
        covered = [0.0] * n
        masks = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += dur[i]
                masks[i] = masks[p] | (1 << names[p])
        self_sum = 0.0
        top_rows = 0
        join_ids = (self.ids["joins.join"], self.ids["joins.partial_join"])
        pj_bit = 1 << self.ids["joins.partial_join"]
        min_self = 0.0
        acc = totals.acc
        for i in range(n):
            own = dur[i] - covered[i]
            self_sum += own
            min_self = min(min_self, own)
            p = parents[i]
            if names[i] in join_ids and not masks[i] & pj_bit:
                top_rows += self._value[i]
            key = (names[i], names[p] if p >= 0 else -1, masks[i])
            row = acc.get(key)
            if row is None:
                row = acc[key] = [0, 0.0, 0.0, 0]
            row[0] += 1
            if not self._nested[i]:
                row[1] += dur[i]
            row[2] += own
            row[3] += self._value[i]
        self._reset()
        return OpSpans(self_sum, min_self, top_rows)


@dataclass(frozen=True)
class OpSpans:
    """Summary of one traced operation."""

    self_s: float  # sum of self times, which is the time inside root spans
    min_self_s: float  # below zero only if a span outlived its parent
    join_rows: int  # rows of join and partial_join results, not nested ones


class SpanTotals:
    """Per-strategy span totals keyed by (name, parent, ancestor mask).

    Each entry holds [calls, busy seconds (outermost calls only), self
    seconds, summed per-call value].
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.acc: dict[tuple[int, int, int], list] = {}

    def _rows(self, name: str, under: str | None, parent: str | None):
        ids = self.tracer.ids
        nid = ids[name]
        under_bit = 1 << ids[under] if under else 0
        pid = ids[parent] if parent else None
        for (n, p, mask), row in self.acc.items():
            if n != nid or (under_bit and not mask & under_bit):
                continue
            if pid is not None and p != pid:
                continue
            yield row

    def calls(self, name, under=None, parent=None) -> int:
        return sum(r[0] for r in self._rows(name, under, parent))

    def busy(self, name, under=None, parent=None) -> float:
        return sum(r[1] for r in self._rows(name, under, parent))

    def self_time(self, name) -> float:
        return sum(r[2] for r in self._rows(name, None, None))

    def value(self, name, under=None, parent=None) -> int:
        return sum(r[3] for r in self._rows(name, under, parent))

    def tree(self) -> list[dict]:
        """Totals per (caller, callee), for the span file."""
        names = self.tracer.names
        merged: dict[tuple[str, str], list] = {}
        for (n, p, _), row in self.acc.items():
            key = (names[p] if p >= 0 else "", names[n])
            m = merged.setdefault(key, [0, 0.0, 0.0, 0])
            for j in range(4):
                m[j] += row[j]
        return [
            {"caller": c, "name": n, "calls": m[0], "busy_s": m[1],
             "self_s": m[2], "value": m[3]}
            for (c, n), m in sorted(merged.items(), key=lambda kv: -kv[1][2])
        ]
