"""The traced benchmark (bench/tracing.py) wraps descm's module globals by
name; a refactor that renames or drops one of them would silently stop
timing that layer. This guard fails instead."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_benchmark_layer_is_present():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert tracer.missing == []
    finally:
        tracer.restore()
