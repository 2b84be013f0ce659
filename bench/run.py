"""descm benchmark: one command, three workloads, end-to-end metrics, and a
separate traced run for per-layer metrics.

    python3 bench/run.py --workload sweep-optimal --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload multiwell-tracemin --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --compare BASE.jsonl NEW.jsonl

Each workload is a closed loop: one client, one task in flight. The task
list is run in whole passes until ``--seconds`` have elapsed. Every result
is checked against a reference after the timed window. The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; ``--out FILE`` also appends the full record, with the machine
description, to a JSON-lines result file. See README.md next to this file.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# One BLAS/OpenMP thread, set before numpy loads here or in a set-up probe.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Fresh interpreters timed per run for setup_s, spread evenly over the
# window; the best of them is reported, like each task's latency.
SETUP_PROBES = 20
# Best time of one Calibration.run on the machine the baseline comes from
# (2 vCPUs, Xeon at 2.1 GHz) in a calm spell of its host. Timings are
# reported at that host speed.
CALIBRATION_REFERENCE_S = 5.66e-4
# The calibration runs after a task once this long has passed since its last run.
CALIBRATION_EVERY_S = 0.05


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def import_descm():
    """Import the package from this checkout's source tree, never elsewhere."""
    if not (SRC / "descm" / "__init__.py").is_file():
        raise BenchError(f"no descm package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import descm

    if Path(descm.__file__).resolve().parent != (SRC / "descm").resolve():
        raise BenchError(f"imported descm from {descm.__file__}, not from {SRC}")
    return descm


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "openblas_config": blas.get("openblas configuration", "?"),
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def setup_probe(workload: str, seed: int) -> float:
    """In a fresh interpreter: import descm, parse and build every problem."""
    import_descm()
    workloads.build(workloads.plan(workload, seed))
    return time.perf_counter() - _T0


def probe_setup(workload: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


@dataclass
class Window:
    """One timed stretch of whole passes over the task list."""

    latencies: list = field(default_factory=list)
    pass_walls: list = field(default_factory=list)
    wall: float = 0.0
    # task index -> list of [fingerprint, first output, executions]
    outputs: dict = field(default_factory=dict)
    # task index -> best time of each part over the passes, or None if the
    # task did not split into the same number of parts every time
    best_parts: dict = field(default_factory=dict)

    def keep_best_parts(self, i: int, parts) -> None:
        best = self.best_parts.get(i, parts)
        if best is not None and len(best) == len(parts):
            self.best_parts[i] = np.minimum(best, parts)
        else:
            self.best_parts[i] = None


@contextlib.contextmanager
def timing_parts(parts: list):
    """Append the durations of a task's short parts to ``parts`` as it runs.

    Every ``descm.mesh.collocation_trace`` call, the trace search's unit of
    work, is one part; every ``descm.solver.solve`` call is one more, less
    the trace calls inside it. ``converge``, the CLI and the mesh search
    reach both through these module attributes.
    """
    from descm import mesh, solver

    raw_solve, raw_trace = solver.solve, mesh.collocation_trace
    clock = time.perf_counter

    def trace(*args, **kwargs):
        t0 = clock()
        try:
            return raw_trace(*args, **kwargs)
        finally:
            parts.append(clock() - t0)

    def solve(*args, **kwargs):
        first = len(parts)
        t0 = clock()
        try:
            return raw_solve(*args, **kwargs)
        finally:
            parts.append(clock() - t0 - sum(parts[first:]))

    solver.solve, mesh.collocation_trace = solve, trace
    try:
        yield
    finally:
        solver.solve, mesh.collocation_trace = raw_solve, raw_trace


class Calibration:
    """Fixed numpy and Python work that no descm code takes part in.

    It is split into 30 units of 6-55 microseconds (a 31x31 symmetric
    eigensolve, elementwise exp/cosh/sinh on 400 points, a 300-step Python
    loop), each timed and kept at its best, like the parts of a task. The
    sum of the best units over the window measures how fast the host ran
    in this run, in the same way as the tasks' best parts do; the program
    under test cannot change it.
    """

    def __init__(self):
        self.x = np.linspace(-3.0, 3.0, 400)
        a = np.cos(np.add.outer(np.arange(31.0), 0.37 * np.arange(31.0)))
        self.matrix = a + a.T
        self.best = None
        self.runs = 0
        self.last = -float("inf")

    def run(self) -> None:
        clock = time.perf_counter
        units = np.empty(30)
        for k in range(len(units)):
            t0 = clock()
            if k % 3 == 0:
                np.linalg.eigvalsh(self.matrix)
            elif k % 3 == 1:
                np.exp(-np.cosh(self.x)) * np.sinh(self.x)
            else:
                acc = 0.0
                for i in range(300):
                    acc += i * 0.5
            units[k] = clock() - t0
        self.best = units if self.best is None else np.minimum(self.best, units)
        self.runs += 1
        self.last = clock()

    def when_due(self) -> None:
        if time.perf_counter() - self.last > CALIBRATION_EVERY_S:
            self.run()


def measure(tasks, seconds: float, tracer=None, between_passes=None, parts=None,
            after_task=None) -> Window:
    """Run whole passes until ``seconds`` have elapsed; keep distinct outputs.

    A repeated output is compared with the first by fingerprint, so every
    execution is checked while memory stays flat across passes.
    ``between_passes(elapsed)`` runs after each pass, outside every latency.
    ``parts``, if given, is the list ``timing_parts`` fills; each task is
    then split into those parts and the rest, and ``best_parts`` kept.
    ``after_task()`` runs after each task, outside its latency.
    """
    window = Window()
    clock = time.perf_counter
    start = clock()
    while not window.pass_walls or clock() - start < seconds:
        pass_start = clock()
        for i, task in enumerate(tasks):
            if parts is not None:
                parts.clear()
            t0 = clock()
            try:
                if tracer is None:
                    out = task.run()
                else:
                    with tracer.span("task"):
                        out = task.run()
            except Exception as exc:  # a failed task is counted, not fatal
                out = exc
            latency = clock() - t0
            window.latencies.append(latency)
            if parts is not None:
                window.keep_best_parts(i, np.array([latency - sum(parts), *parts]))
            if after_task is not None:
                after_task()
            key = repr(out) if isinstance(out, Exception) else task.fingerprint(out)
            seen = window.outputs.setdefault(i, [])
            for entry in seen:
                if entry[0] == key:
                    entry[2] += 1
                    break
            else:
                seen.append([key, out, 1])
        window.pass_walls.append(clock() - pass_start)
        if between_passes is not None:
            between_passes(clock() - start)
    window.wall = clock() - start
    return window


def check(tasks, *windows) -> tuple[int, int, int, list[str]]:
    """(attempted, unexpected failures, known failures, messages)."""
    attempted = failed = known = 0
    messages = []
    for window in windows:
        for i, seen in window.outputs.items():
            task = tasks[i]
            for _, out, runs in seen:
                attempted += runs
                raised = isinstance(out, Exception)
                errors = [f"{task.spec.label}: raised {out!r}"] if raised else task.check(out)
                if not errors:
                    continue
                if task.known_failure and not raised:
                    known += runs
                    errors = [f"{e} (known: {task.known_failure})" for e in errors]
                elif all(isinstance(e, workloads.KnownDefect) for e in errors):
                    known += runs
                else:
                    failed += runs
                messages.extend(errors)
    return attempted, failed, known, sorted(set(messages))


def run_plain(tasks, seconds, probe) -> tuple[dict, list, dict]:
    """End-to-end metrics from each task's best parts over the window.

    The host's speed swings by up to 2x from one half second to the next
    and through slow spells of a minute, and every process slows together.
    A task's latency on the undisturbed host is taken as the sum, over its
    parts (see ``timing_parts``; the rest of the task is one more part), of
    each part's best time over the passes, as ``timeit`` reports a best.
    Parts last well under a few milliseconds, so each finds a fast moment
    in the window even when a whole sweep of a second or more never runs in
    one; the wrappers cost under a microsecond per call. Set-up is timed as
    a best too, in fresh interpreters between passes.

    Even best parts run slower through a whole run in a slow spell of the
    host, so every time is then scaled by the calibration's reference time
    over its best time in this run: the times read as on the reference
    host. The unscaled metrics are kept in the result record.
    """
    setup = [probe()]

    def probe_when_due(elapsed):
        while len(setup) < SETUP_PROBES and elapsed >= len(setup) * seconds / SETUP_PROBES:
            setup.append(probe())

    parts: list = []
    calibration = Calibration()
    with timing_parts(parts):
        window = measure(tasks, seconds, between_passes=probe_when_due, parts=parts,
                         after_task=calibration.when_due)
    while len(setup) < SETUP_PROBES:
        setup.append(probe())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    best_whole = np.reshape(window.latencies, (len(window.pass_walls), len(tasks))).min(axis=0)
    best = np.array([best_whole[i] if window.best_parts[i] is None
                     else window.best_parts[i].sum() for i in range(len(tasks))])

    def timings(scale):
        return {
            "setup_s": (min(setup) * scale, "s"),
            "tasks_per_s": (len(tasks) / float(best.sum() * scale), "1/s"),
            "task_ms_p50": (float(np.percentile(best, 50)) * scale * 1e3, "ms"),
            "task_ms_p90": (float(np.percentile(best, 90)) * scale * 1e3, "ms"),
        }

    calibration_s = float(calibration.best.sum())
    metrics = {**timings(CALIBRATION_REFERENCE_S / calibration_s),
               "peak_rss_mb": (peak_rss_mb, "MB")}
    info = {"samples": len(window.latencies), "passes": len(window.pass_walls),
            "window_s": window.wall, "setup_probes_s": setup,
            "calibration_s": calibration_s, "calibration_runs": calibration.runs,
            "unscaled": {k: v for k, (v, _) in timings(1.0).items()}}
    return metrics, [window], info


def run_traced(tasks, specs, seconds) -> tuple[dict, list, dict]:
    """Alternate untraced and traced passes; per-layer metrics per traced pass.

    ``trace_overhead_frac`` is the median over adjacent pairs of passes, so
    slow drift of the host stays out of it.
    """
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        with tracer.span("setup"):
            traced_tasks = workloads.build(specs)
    finally:
        tracer.restore()
    if tracer.missing:
        print(f"bench: not traced (absent): {', '.join(tracer.missing)}", file=sys.stderr)
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(measure(tasks, 0))
        tracing.install(tracer)
        try:
            traced.append(measure(traced_tasks, 0, tracer))
        finally:
            tracer.restore()
    metrics = tracing.per_layer(tracer, len(traced), len(tasks))
    overhead = statistics.median(t.wall / p.wall for p, t in zip(plain, traced)) - 1
    metrics["trace_overhead_frac"] = (overhead, "ratio")
    info = {"samples": sum(len(w.latencies) for w in traced), "passes": len(traced),
            "untraced_passes": len(plain), "window_s": time.perf_counter() - start,
            "spans": len(tracer.start)}
    return metrics, plain + traced, info


def run(workload: str, seed: int, seconds: float, trace: bool, specs=None) -> dict:
    """One benchmark run; returns the full result record.

    ``specs`` replaces the workload's planned task list (the self-tests use
    short lists).
    """
    if specs is None:
        specs = workloads.plan(workload, seed)
    import_descm()
    tasks = workloads.build(specs)
    if trace:
        tasks[0].run()  # warm-up: lazy imports and first-call allocations
        metrics, windows, info = run_traced(tasks, specs, seconds)
    else:
        tasks[0].run()
        metrics, windows, info = run_plain(
            tasks, seconds, lambda: probe_setup(workload, seed))
    attempted, failed, known, messages = check(tasks, *windows)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "known_failed": known,
        "failed_frac": (failed + known) / attempted,
        "messages": messages,
        "tasks_per_pass": len(tasks),
        **info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "env": environment(),
    }


def report(record: dict) -> None:
    """Human-readable lines, then the one-line JSON result last."""
    for message in record["messages"]:
        print(f"check: {message}", file=sys.stderr)
    env = record["env"]
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']} [{env['openblas_config']}]")
    print(f"# {record['attempted']} tasks in {record['passes']} passes of "
          f"{record['tasks_per_pass']}; {record['samples']} latency samples")
    print(f"failed_frac = {record['failed_frac']:.6g} ratio "
          f"({record['failed']} unexpected + {record['known_failed']} known failures "
          f"of {record['attempted']})")
    for name, m in record["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two result files instead of running")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare, benchmark=ROOT / "BENCHMARK.json")
    if args.workload is None:
        parser.error("--workload is required")
    try:
        if args.setup_probe:
            print(setup_probe(args.workload, args.seed))
            return 0
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    report(record)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
