"""The benchmark's span tracer still finds every function it wraps.

A target the tracer cannot resolve only shows up as null per-layer metrics
in a traced benchmark run, so a rename in the package is caught here.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("dotted", sorted({t[0] for t in tracer.TARGETS}))
def test_trace_target_resolves(dotted):
    assert tracer._resolve(dotted) is not None, f"{dotted} is gone"
