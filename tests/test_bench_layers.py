"""The benchmark reaches descm through module globals, and these guards fail
when a refactor would silently change what it measures.

The traced benchmark (bench/tracing.py) wraps descm's module globals by
name; renaming or dropping one of them would stop timing that layer. The
untraced run (bench/run.py, ``timing_parts``) splits each task into parts by
wrapping ``descm.solver.solve`` and ``descm.mesh.collocation_trace``; a path
that bypassed them would fold its work into fewer, longer parts. The traced
``de_map.scaled`` layer wraps ``transformed_potential_scaled`` as the mesh and
assembly modules name it; a trace or assembly that inlined it would leave
that layer silent. A closed-form sweep builds the slabs of a block of
truncations in one pass over a padded grid of B truncations by S points,
S the block's largest N + 1, with one ``transformed_potential_scaled``
call over all B * S points, and picks each planned h through
``solver.mesh_size_for``, so those layers must still see one call per
block and one per planned N; ``de_map.points`` then counts the padding and
the points of a last block's truncations that the sweep never solves. That
pass runs in ``converge``, outside ``assemble_collocation_matrix``, so for
such a sweep the traced ``assembly`` layer times each truncation's
diagonal check alone and the slab work reads as ``solver.converge``. The
traced ``eigensolver`` and ``assembly`` layers count calls, rows and bytes,
each truncation's slab a view of its own (N + 1)^2 corner, so a sweep that
solved both parity blocks again would show there as twice the work."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from descm import DescmProblem, MeshStrategy, assembly, cli, mesh, parse_potential, solver

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


@pytest.fixture
def part_counts(monkeypatch):
    """Count calls through the two module globals the benchmark splits on."""
    counts = {"solve": 0, "trace": 0}
    raw_solve, raw_trace = solver.solve, mesh.collocation_trace

    def counted_solve(*args, **kwargs):
        counts["solve"] += 1
        return raw_solve(*args, **kwargs)

    def counted_trace(*args, **kwargs):
        counts["trace"] += 1
        return raw_trace(*args, **kwargs)

    monkeypatch.setattr(solver, "solve", counted_solve)
    monkeypatch.setattr(mesh, "collocation_trace", counted_trace)
    return counts


@pytest.mark.parametrize("mesh_kind", ["optimal", "trace-min"])
def test_cli_converge_reaches_the_part_hooks(part_counts, capsys, mesh_kind):
    code = cli.main(["converge", "--potential", "poly:1,1", "--mesh", mesh_kind,
                     "--format", "json"])
    records = json.loads(capsys.readouterr().out)["records"]
    assert code == 0
    assert part_counts["solve"] == len(records)
    if mesh_kind == "trace-min":
        assert part_counts["trace"] >= len(records)
    else:
        assert part_counts["trace"] == 0


def test_library_trace_min_converge_reaches_the_part_hooks(part_counts):
    problem = DescmProblem(parse_potential("poly:1,-4,1"), strategy=MeshStrategy.trace_minimized())
    trace = solver.converge(problem, level=0, tolerance=5e-12, n_max=40)
    assert part_counts["solve"] == len(trace.records)
    assert part_counts["trace"] >= len(trace.records)


def test_trace_and_assembly_each_call_the_scaled_potential_once(monkeypatch, capsys):
    counts = dict.fromkeys(("trace", "assembly", "mesh.scaled", "assembly.scaled"), 0)

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, attr, key in (
        (mesh, "collocation_trace", "trace"),
        (solver, "assemble_collocation_matrix", "assembly"),
        (mesh, "transformed_potential_scaled", "mesh.scaled"),
        (assembly, "transformed_potential_scaled", "assembly.scaled"),
    ):
        monkeypatch.setattr(owner, attr, counted(key, getattr(owner, attr)))
    code = cli.main(["converge", "--potential", "cheb:10;shift=-1", "--mesh", "trace-min",
                     "--format", "json"])
    records = json.loads(capsys.readouterr().out)["records"]
    assert code == 0
    assert counts["assembly"] == len(records)
    # a scan per mesh choice; a choice makes one more trace call, a pick among
    # the slope's zeros, only where it sees several dips, and none here does
    assert counts["trace"] == len(records)
    # the scan reads the first window's table, which evaluates W/cosh^2 only
    # when it grows (to max(N + 1, twice its width), from empty at a new potential)
    width = growths = 0
    for record in records:
        if record["N"] >= width:
            width, growths = max(record["N"] + 1, 2 * width), growths + 1
    assert counts["mesh.scaled"] == growths
    assert counts["assembly.scaled"] == counts["assembly"]


@pytest.mark.parametrize("mesh_args", [("--mesh", "optimal"), ("--mesh", "fixed", "--h", "0.2")],
                         ids=["optimal", "fixed"])
@pytest.mark.parametrize("n_step", [1, 3])
def test_closed_form_sweep_evaluates_its_points_once_per_block(monkeypatch, capsys, mesh_args,
                                                               n_step):
    points, meshes = [], []
    raw_scaled, raw_mesh = assembly.transformed_potential_scaled, solver.mesh_size_for
    monkeypatch.setattr(assembly, "transformed_potential_scaled",
                        lambda potential, x, *args: points.append(np.size(x)) or raw_scaled(
                            potential, x, *args))
    monkeypatch.setattr(solver, "mesh_size_for",
                        lambda potential, n, strategy: meshes.append(n) or raw_mesh(
                            potential, n, strategy))
    block, unsolved = solver._SWEEP_BLOCK, 0
    for spec in ("poly:1,1", "poly:0.1,0.1", "poly:1,1,1"):
        points.clear()
        meshes.clear()
        code = cli.main(["converge", "--potential", spec, *mesh_args, "--N-step", str(n_step),
                         "--N-max", "60", "--format", "json"])
        records = json.loads(capsys.readouterr().out)["records"]
        assert code in (0, 3)
        # every h of the blocks begun is picked and their points evaluated on
        # the block's padded grid, B truncations by the largest N + 1, those
        # of truncations past the stop included; none beyond
        planned = list(range(2, 61, n_step))[: -(-len(records) // block) * block]
        assert meshes == planned, spec
        assert points == [len(planned[i : i + block]) * (planned[i : i + block][-1] + 1)
                          for i in range(0, len(planned), block)], spec
        unsolved += len(planned) - len(records)
    assert unsolved > 0


def test_a_covered_first_scan_evaluates_the_scaled_potential_only_for_the_last_pick(
        monkeypatch):
    # a choice with one dip takes the slope's zero and evaluates no trace
    # beyond the scan; cheb:20 at N = 1 sees several dips and picks among them
    raw, calls = mesh.transformed_potential_scaled, []
    monkeypatch.setattr(mesh, "transformed_potential_scaled",
                        lambda *args: calls.append(args) or raw(*args))
    for spec, picks in (("cheb:10;shift=-1", (0, 0, 0)), ("cheb:20;shift=-1", (0, 0, 1))):
        potential = parse_potential(spec)
        mesh.trace_minimized_mesh_size(potential, 30)  # the first-scan table now covers N <= 30
        for n, expected in zip((30, 12, 1), picks):
            calls.clear()
            mesh.trace_minimized_mesh_size(potential, n)
            assert len(calls) == expected, (spec, n)


@pytest.fixture
def block_work(monkeypatch):
    """Rows of each eigensolve and (N, entries bytes) of each assembly that
    ``solver.solve`` runs through the globals the benchmark wraps."""
    work = {"eigen_rows": [], "slabs": []}
    raw_eigen, raw_assembly = solver.eigen_symmetric, solver.assemble_collocation_matrix

    def eigen(matrix, *args, **kwargs):
        work["eigen_rows"].append(len(matrix))
        return raw_eigen(matrix, *args, **kwargs)

    def assemble(*args, **kwargs):
        matrix = raw_assembly(*args, **kwargs)
        work["slabs"].append((matrix.half_width, matrix.entries.nbytes))
        return matrix

    monkeypatch.setattr(solver, "eigen_symmetric", eigen)
    monkeypatch.setattr(solver, "assemble_collocation_matrix", assemble)
    return work


def converge_records(capsys, mesh_kind, level):
    code = cli.main(["converge", "--potential", "poly:4,-6,1", "--level", str(level),
                     "--mesh", mesh_kind, "--format", "json"])
    assert code == 0
    return json.loads(capsys.readouterr().out)["records"]


@pytest.mark.parametrize("level", [0, 1, 3])
@pytest.mark.parametrize("mesh_kind", ["optimal", "trace-min"])
def test_cli_converge_makes_one_eigensolve_per_record(block_work, capsys, mesh_kind, level):
    records = converge_records(capsys, mesh_kind, level)
    # one block per truncation: N + 1 rows for an even level, N for an odd one
    assert block_work["eigen_rows"] == [r["N"] + (level % 2 == 0) for r in records]


@pytest.mark.parametrize("level", [0, 1, 3])
@pytest.mark.parametrize("mesh_kind", ["optimal", "trace-min"])
def test_cli_converge_assembles_one_slab_per_record(block_work, capsys, mesh_kind, level):
    records = converge_records(capsys, mesh_kind, level)
    assert block_work["slabs"] == [(r["N"], 8 * (r["N"] + 1) ** 2) for r in records]
