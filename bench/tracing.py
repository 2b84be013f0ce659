"""Spans around the package's layers, recorded from the benchmark side.

The traced run replaces module attributes of ``descm`` with timing wrappers
and restores them afterwards; no source file changes. The package's own
calls go through those module globals (``solver.solve`` calls
``mesh_size_for``, ``assemble_collocation_matrix`` and ``eigen_symmetric``
by their names in ``descm.solver``), so the wrappers see them.

Each span records its layer, its parent span, the root span of its task,
and its start and end. Spans stay in memory, in flat arrays, until the run
ends. A span's self time is its duration minus its children's durations.
"""

from __future__ import annotations

import math
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# |t| above which de_map switches to its per-point exponent branch.
LARGE_T = 20.0
# Dense symmetric eigensolver operation counts (Golub & Van Loan, sec. 8.3):
# tridiagonal reduction alone for eigenvalues, plus accumulated rotations
# for eigenvectors.
_FLOPS_VALUES = 4.0 / 3.0
_FLOPS_VECTORS = 9.0


class Tracer:
    def __init__(self):
        self._ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("q")
        self.root = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        return self._ids.setdefault(name, len(self._ids))

    def _open(self, layer: int) -> int:
        sid = len(self.start)
        stack = self._stack
        self.layer.append(layer)
        self.parent.append(stack[-1] if stack else -1)
        self.root.append(stack[0] if stack else sid)
        self.end.append(math.nan)
        stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(sid)

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def wrap(self, name: str, fn, hook=None):
        layer = self._id(name)

        def traced(*args, **kwargs):
            sid = self._open(layer)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, args, kwargs, result)
                return result
            finally:
                self._close(sid)

        return traced

    def patch(self, owner, attr: str, name: str, hook=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`."""
        raw = owner.__dict__.get(attr)
        if raw is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), hook))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def summary(self):
        """Per-span layer ids, root layer ids, durations and self times."""
        duration = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent)
        layer = np.asarray(self.layer)
        children = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(children, parent[nested], duration[nested])
        root_layer = layer[np.asarray(self.root)]
        return layer, root_layer, duration, duration - children


def _count_points(tracer, args, kwargs, result):
    t = np.abs(np.asarray(args[1], dtype=float))
    tracer.count("de_map.points", t.size)
    tracer.count("de_map.large_t_points", int(np.count_nonzero(t > LARGE_T)))


def _count_bytes(tracer, args, kwargs, result):
    tracer.count("assembly.bytes", result.entries.nbytes)


def _count_eigen(tracer, args, kwargs, result):
    n = np.shape(args[0])[0]
    vectors = kwargs.get("want_vectors", args[1] if len(args) > 1 else False)
    tracer.count("eigensolver.rows", n)
    tracer.count("eigensolver.flops", (_FLOPS_VECTORS if vectors else _FLOPS_VALUES) * n**3)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from descm import assembly, cli, mesh, potential, sinc_basis, solver

    weights = sinc_basis.SincWeights
    tracer.missing = []
    for owner, attr, name, hook in (
        (cli, "main", "cli.main", None),
        (cli, "parse_potential", "potential.parse", None),
        (potential, "parse_potential", "potential.parse", None),
        (cli, "converge", "solver.converge", None),
        (solver, "converge", "solver.converge", None),
        (solver, "solve", "solver.solve", None),
        (solver, "reconstruct_wavefunction", "solver.reconstruct", None),
        (solver, "mesh_size_for", "mesh.select", None),
        (mesh, "collocation_trace", "mesh.trace", None),
        (mesh, "transformed_potential_scaled", "de_map.scaled", _count_points),
        (assembly, "transformed_potential_scaled", "de_map.scaled", _count_points),
        (solver, "assemble_collocation_matrix", "assembly", _count_bytes),
        (solver, "eigen_symmetric", "eigensolver", _count_eigen),
        (solver, "sinc", "sinc_basis.sinc", None),
        (weights, "second_derivative", "sinc_basis.weights", None),
        (weights, "offset_matrix", "sinc_basis.weights", None),
    ):
        tracer.patch(owner, attr, name, hook)


def per_layer(tracer: Tracer, passes: int, tasks_per_pass: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced window, per pass of the task list.

    ``potential.parse.self_s`` also includes the one traced set-up build,
    where the library workloads parse their potentials.
    """
    layer, root_layer, duration, self_time = tracer.summary()
    ids = tracer._ids
    in_task = root_layer == ids.get("task", -1)
    in_setup = root_layer == ids.get("setup", -1)

    def mask(name):
        return (layer == ids[name]) if name in ids else np.zeros(layer.shape, bool)

    def calls(name):
        return float(np.count_nonzero(mask(name) & in_task)) / passes

    def self_s(name):
        return float(self_time[mask(name) & in_task].sum()) / passes

    def counter(name):
        return tracer.counters.get(name, 0.0) / passes

    def ratio(a, b):
        return a / b if b else 0.0

    task_time = float(duration[mask("task")].sum())
    layer_time = float(self_time[in_task & ~mask("task")].sum())
    parse_setup = float(self_time[mask("potential.parse") & in_setup].sum())
    eig_calls = calls("eigensolver")
    return {
        "mesh.select.calls": (calls("mesh.select"), "count"),
        "mesh.select.self_s": (self_s("mesh.select"), "s"),
        "mesh.trace.calls": (calls("mesh.trace"), "count"),
        "mesh.trace.self_s": (self_s("mesh.trace"), "s"),
        "mesh.trace_evals_per_select": (ratio(calls("mesh.trace"), calls("mesh.select")), "count"),
        "de_map.scaled.calls": (calls("de_map.scaled"), "count"),
        "de_map.scaled.self_s": (self_s("de_map.scaled"), "s"),
        "de_map.points": (counter("de_map.points"), "count"),
        "de_map.large_t_frac": (
            ratio(counter("de_map.large_t_points"), counter("de_map.points")), "ratio"),
        "assembly.calls": (calls("assembly"), "count"),
        "assembly.self_s": (self_s("assembly"), "s"),
        "assembly.bytes_computed": (counter("assembly.bytes"), "B"),
        "eigensolver.calls": (eig_calls, "count"),
        "eigensolver.self_s": (self_s("eigensolver"), "s"),
        "eigensolver.dim_mean": (ratio(counter("eigensolver.rows"), eig_calls), "rows"),
        "eigensolver.flops_computed": (counter("eigensolver.flops"), "flop"),
        "sinc_basis.sinc.self_s": (self_s("sinc_basis.sinc"), "s"),
        "sinc_basis.weights.self_s": (self_s("sinc_basis.weights"), "s"),
        "solver.converge.self_s": (self_s("solver.converge"), "s"),
        "solver.solve.calls": (calls("solver.solve"), "count"),
        "solver.solve.self_s": (self_s("solver.solve"), "s"),
        "solver.solves_per_sweep": (ratio(calls("solver.solve"), tasks_per_pass), "count"),
        "solver.reconstruct.self_s": (self_s("solver.reconstruct"), "s"),
        "potential.parse.self_s": (parse_setup + self_s("potential.parse"), "s"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "layer_self_frac": (ratio(layer_time, task_time), "ratio"),
    }
