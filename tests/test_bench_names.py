"""The benchmark's tracer resolves joinfd functions and JoinContext methods
by name, and the benchmark builds it on every run. Building it here fails as
soon as one of those names is renamed, moved or deleted. The benchmark's
mining funnel (`mine.pruned`, `mine.validated`) counts traced calls under
`mine.discover`, so a traced run must see them there: an implication check
or validator inlined into `mine.discover` would silently read zero."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

from joinfd.fixtures import FixtureProfile, make_fixture
from joinfd.joins import JoinKind
from joinfd.pipeline import run_pipeline

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("joinfd_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_resolves_every_traced_name():
    spans = _load_spans()
    tracer = spans.Tracer()
    for module, func, _, _ in spans.FUNCTIONS:
        fn = getattr(importlib.import_module(f"joinfd.{module}"), func)
        assert inspect.isfunction(fn), f"joinfd.{module}.{func}"
    assert len({id(fn) for _, _, fn in tracer.sites}) == len(spans.FUNCTIONS)
    assert len(tracer.methods) == len(spans.METHODS)
    tracer.install()
    try:
        for module, attr, fn in tracer.sites:
            assert getattr(module, attr) is not fn
    finally:
        tracer.uninstall()
    tracer.assert_no_wrapper_anywhere()


def test_traced_outer_join_records_the_mining_funnel():
    spans = _load_spans()
    tracer = spans.Tracer()
    totals = spans.SpanTotals(tracer)
    profile = FixtureProfile(
        left_rows=24, right_rows=24, left_attrs=4, right_attrs=4,
        dangling_fraction=0.3, duplicate_fraction=0.3, domain_low=3,
        domain_high=50, op=JoinKind.LEFT_OUTER,
    )
    left, right, spec = make_fixture(profile, seed=0)
    tracer.install()
    try:
        run_pipeline(left, right, spec, strategy="selective")
        tracer.collect(totals)
    finally:
        tracer.uninstall()
    tracer.assert_no_wrapper_anywhere()
    assert totals.value("fds.implies", under="mine.discover") >= 1  # pruned
    assert totals.calls("context.check_fd", under="mine.discover") >= 1  # validated
