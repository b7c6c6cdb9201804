"""Tracer checks: every binding is patched, counts repeat, bindings come back.

The reference count comes from ``sys.setprofile``, which sees every call of
a target's code object whichever name it was called through, so a binding
the tracer failed to patch shows up as a count mismatch.
"""

import sys
import types
from collections import Counter

import pytest

import tracing
import workloads
from loopfock.report import SUITE_NAMES


def traced_counts(make, requests):
    """Run one traced pass; return (tracer counts, profiler counts)."""
    workload = make()
    tracing.package_modules()
    codes = {fn.__code__: name for name, fn in tracing.resolve_targets().items()}
    profiled = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            profiled[codes[frame.f_code]] += 1

    with tracing.Tracer() as tracer:
        sys.setprofile(profile)
        try:
            m = workloads.measure(workload, seed=11, requests=requests, tracer=tracer)
        finally:
            sys.setprofile(None)
    assert not m.problems
    return dict(tracer.calls), dict(profiled)


@pytest.mark.parametrize("kind", ["verify", "lift"])
def test_calls_repeat_and_match_profiler(kind, tmp_path):
    if kind == "verify":
        def make():
            return workloads.Verify(1, 2, SUITE_NAMES, str(tmp_path / "report.json"))
        requests = 1
    else:
        def make():
            return workloads.Lift(2, 2)
        requests = 12
    first, profiled = traced_counts(make, requests)
    second, _ = traced_counts(make, requests)
    assert first == profiled
    assert first == second


def test_bindings_restored():
    modules = tracing.package_modules()
    originals = tracing.resolve_targets()
    with tracing.Tracer():
        from loopfock import algebra, suites
        assert algebra.span_residual is not originals["linalg.span_residual"]
        assert suites.SUITES["tomita"] is not originals["suites.tomita_checks"]
    assert tracing.resolve_targets() == originals
    for mod in modules:
        for value in vars(mod).values():
            inner = value.values() if type(value) is dict else [value]
            assert not any(isinstance(v, types.FunctionType) and hasattr(v, "__wrapped__")
                           for v in inner)
