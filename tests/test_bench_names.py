"""The benchmark's tracer resolves joinfd functions and JoinContext methods
by name, and the benchmark builds it on every run. Building it here fails as
soon as one of those names is renamed, moved or deleted."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

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
