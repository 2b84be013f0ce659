"""Self-tests of the benchmark itself: python -m pytest bench/test_bench.py"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import references
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _invoke(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(trace, group):
    done = _invoke(HERE.parent, "--workload", "sweep-optimal", "--seed", "1",
                   "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in SPEC[group]} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if not trace:
        assert "failed_frac = " in done.stdout


def test_counts_repeat_exactly_for_one_seed():
    specs = workloads.plan("multiwell-tracemin", 7)[:2]
    first, second = (run.run("multiwell-tracemin", 7, 0, True, specs) for _ in range(2))
    for name in ("mesh.trace_evals_per_select", "solver.solves_per_sweep",
                 "eigensolver.calls", "mesh.trace.calls", "de_map.points"):
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["mesh.trace.calls"]["value"] > 0


def test_layer_self_times_fit_inside_the_task_time():
    specs = workloads.plan("spectrum-largeN", 3)[:2]
    metrics = run.run("spectrum-largeN", 3, 0, True, specs)["metrics"]
    assert 0.9 <= metrics["layer_self_frac"]["value"] <= 1.0


def test_parts_split_each_task_and_are_unwrapped_after():
    run.import_descm()
    from descm import mesh, solver

    raw = solver.solve, mesh.collocation_trace
    tasks = workloads.build(workloads.plan("multiwell-tracemin", 7)[:1])
    parts: list = []
    with run.timing_parts(parts):
        window = run.measure(tasks, 0, parts=parts)
    assert (solver.solve, mesh.collocation_trace) == raw
    best = window.best_parts[0]
    # the rest of the task, one part per solve, one per trace evaluation
    assert len(best) > 1 + len(tasks[0].run().records)
    assert (best >= 0).all() and best.sum() <= window.latencies[0]


def test_self_time_is_duration_minus_children():
    tracer = tracing.Tracer()
    tracer.start.extend([0.0, 1.0, 2.0, 5.0])
    tracer.end.extend([10.0, 4.0, 3.0, 6.0])
    tracer.parent.extend([-1, 0, 1, 0])
    tracer.root.extend([0, 0, 0, 0])
    tracer.layer.extend([0, 1, 2, 1])
    _, _, duration, self_time = tracer.summary()
    assert list(self_time) == [6.0, 2.0, 1.0, 1.0]
    assert math.isclose(self_time.sum(), duration[0])


def test_wrong_reference_counts_as_failure(monkeypatch):
    monkeypatch.setitem(references.PUBLISHED_GROUND, (1, 1, 1), 1.7)
    record = run.run("sweep-optimal", 1, 0, False)
    assert record["failed"] > 0 and not record["correct"]
    assert record["failed_frac"] > 0
    assert any("misses pinned 1.7" in m for m in record["messages"])


def test_known_failure_is_counted_apart():
    specs = [s for s in workloads.plan("sweep-optimal", 1)
             if s.spec in references.EARLY_STOP_CASES]
    record = run.run("sweep-optimal", 1, 0, False, specs)
    assert record["failed"] == 0 and record["known_failed"] == len(specs)
    assert record["failed_frac"] == 1.0


def test_seeded_early_stop_is_a_known_failure():
    # Seed 997965974 draws poly:0.35,1.07,-1.43,3.71, whose sweep stops at
    # N=17, 2.9e-9 from the converged level.
    specs = [s for s in workloads.plan("sweep-optimal", 997965974) if s.seeded]
    record = run.run("sweep-optimal", 997965974, 0, False, specs)
    assert record["failed"] == 0 and record["known_failed"] > 0
    assert any("poly:0.35,1.07,-1.43,3.71" in m and "known" in m for m in record["messages"])


def test_without_the_package_it_fails_without_a_result():
    with tempfile.TemporaryDirectory(prefix=".bench-selftest-", dir=HERE.parent) as tmp:
        shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
        done = _invoke(tmp, "--workload", "sweep-optimal", "--seed", "1",
                       "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_seed_fixes_the_inputs():
    for workload in workloads.WORKLOADS:
        assert workloads.plan(workload, 5) == workloads.plan(workload, 5)
        assert workloads.plan(workload, 5) != workloads.plan(workload, 6)
