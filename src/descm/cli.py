"""Command-line front end.

Commands: solve (spectrum at one truncation), converge (sweep N until the
successive difference stops moving), trace-scan (trace-vs-mesh profile for
plotting), validate (the four analytically solvable cases), table (bundled
parameter presets). Data goes to stdout or --output as CSV or JSON with
numbers at 17 significant digits; diagnostics go to stderr.

Exit codes: 0 success, 1 numerical failure, 2 bad arguments, potential spec
or unwritable --output, 3 converge hit N_max without meeting tolerance.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import NamedTuple

import numpy as np

from .assembly import CollocationOverflowError
from .mesh import (
    MeshStrategy,
    collocation_trace,
    optimal_mesh_size,
    trace_minimized_mesh_size,
)
from .potential import PotentialSpecError, analytic_catalog, parse_potential
from .solver import DescmProblem, converge, solve

_NUMERIC_ERRORS = (CollocationOverflowError, np.linalg.LinAlgError)


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _json_dump(value, indent: int = 0) -> str:
    """Minimal JSON emitter keeping floats at 17 significant digits."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f'{inner}"{k}": {_json_dump(v, indent + 1)}' for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(f"{inner}{_json_dump(v, indent + 1)}" for v in value)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if not math.isfinite(value):
        return "null"  # JSON has no inf/nan
    return _fmt(value)


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cell(value) -> str:
    """CSV text of one value: floats at 17 significant digits, a missing one as nan."""
    if value is None:
        return "nan"
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return _fmt(value)


def _csv(header: str, rows, comments=()) -> str:
    lines = [header]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    lines.extend(f"# {c}" for c in comments)
    return "\n".join(lines) + "\n"


def _mesh_strategy(args) -> MeshStrategy:
    return MeshStrategy(kind=args.mesh, fixed_h=args.h)


def _add_output(sub: argparse.ArgumentParser, default_format: str) -> None:
    sub.add_argument("--format", choices=["csv", "json"], default=default_format)
    sub.add_argument("--output", default=None, help="write data here instead of stdout")


def _add_mesh(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--mesh", choices=["optimal", "trace-min", "fixed"], default="optimal",
                     help="mesh size selection strategy")
    sub.add_argument("--h", type=float, default=None, help="mesh size for --mesh fixed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="descm",
        description="Energy eigenvalues of even-polynomial anharmonic oscillators "
        "by double-exponential Sinc collocation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="spectrum at a fixed truncation")
    p.add_argument("--potential", required=True, help="poly:<c1>,...[;c0=<v>] or cheb:<n>[;shift=<v>]")
    p.add_argument("--N", type=int, required=True, help="truncation half-width (matrix is 2N+1)")
    p.add_argument("--levels", type=int, default=1, help="how many lowest levels to report")
    _add_mesh(p)
    _add_output(p, default_format="json")

    p = sub.add_parser("converge", help="sweep N until the level stops moving")
    p.add_argument("--potential", required=True)
    p.add_argument("--level", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=5e-12)
    p.add_argument("--N-start", type=int, default=2, dest="n_start")
    p.add_argument("--N-step", type=int, default=1, dest="n_step")
    p.add_argument("--N-max", type=int, default=100, dest="n_max")
    _add_mesh(p)
    _add_output(p, default_format="csv")

    p = sub.add_parser("trace-scan", help="trace of the collocation matrix over a mesh grid")
    p.add_argument("--potential", required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--h-min", type=float, default=0.01, dest="h_min")
    p.add_argument("--h-max", type=float, default=2.0, dest="h_max")
    _add_output(p, default_format="csv")

    p = sub.add_parser("validate", help="check the analytically solvable cases "
                       "with both mesh strategies")
    p.add_argument("--case", type=int, default=None, help="restrict to one catalog index (0-3)")
    p.add_argument("--N", type=int, default=45)
    _add_output(p, default_format="csv")

    p = sub.add_parser("table", help="bundled parameter presets")
    p.add_argument("--name", type=int, required=True, choices=[1, 2, 3, 4, 5, 6])
    _add_mesh(p)
    _add_output(p, default_format="csv")

    return parser


def cmd_solve(args) -> int:
    potential = parse_potential(args.potential)
    if args.N < 1:
        raise ValueError(f"--N must be >= 1, got {args.N}")
    if args.levels < 1 or args.levels > 2 * args.N + 1:
        raise ValueError(f"--levels must lie in [1, 2N+1] = [1, {2 * args.N + 1}]")
    problem = DescmProblem(potential, strategy=_mesh_strategy(args), levels_requested=args.levels)
    result = solve(problem, args.N)
    if args.format == "json":
        payload = {
            "command": "solve",
            "potential": args.potential,
            "N": args.N,
            "levels": args.levels,
            "mesh": problem.strategy.kind,
            "h": result.h_used,
            "eigenvalues": [float(v) for v in result.eigenvalues],
        }
        _emit(_json_dump(payload) + "\n", args.output)
    else:
        _emit(_csv("level,E", enumerate(result.eigenvalues)), args.output)
    return 0


def cmd_converge(args) -> int:
    potential = parse_potential(args.potential)
    problem = DescmProblem(potential, strategy=_mesh_strategy(args))
    trace = converge(
        problem,
        level=args.level,
        tolerance=args.tolerance,
        n_step=args.n_step,
        n_max=args.n_max,
        n_start=args.n_start,
    )
    if args.format == "json":
        payload = {
            "command": "converge",
            "potential": args.potential,
            "level": args.level,
            "tolerance": args.tolerance,
            "mesh": problem.strategy.kind,
            "converged": trace.converged,
            "N_final": trace.final.half_width,
            "E_final": trace.final.energy,
            "records": [
                {"N": r.half_width, "h": r.h, "E_n": r.energy, "eps_n": r.delta}
                for r in trace.records
            ],
        }
        _emit(_json_dump(payload) + "\n", args.output)
    else:
        rows = [(r.half_width, r.h, r.energy, r.delta) for r in trace.records]
        _emit(_csv("N,h,E_n,eps_n", rows), args.output)
    if not trace.converged:
        print(
            f"converge: tolerance {args.tolerance:g} not met by N = {trace.final.half_width}",
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_trace_scan(args) -> int:
    potential = parse_potential(args.potential)
    if args.N < 1:
        raise ValueError(f"--N must be >= 1, got {args.N}")
    if args.points < 2 or not (0.0 < args.h_min < args.h_max < math.inf):
        raise ValueError("need --points >= 2 and 0 < h-min < h-max < inf")
    grid = np.exp(np.linspace(math.log(args.h_min), math.log(args.h_max), args.points))
    traces = collocation_trace(potential, args.N, grid)
    h_opt = optimal_mesh_size(potential, args.N)
    h_min_trace = trace_minimized_mesh_size(potential, args.N)
    if args.format == "json":
        payload = {
            "command": "trace-scan",
            "potential": args.potential,
            "N": args.N,
            "h_optimal": h_opt,
            "h_trace_min": h_min_trace,
            "scan": [{"h": float(h), "trace": float(t)} for h, t in zip(grid, traces)],
        }
        _emit(_json_dump(payload) + "\n", args.output)
    else:
        comments = (f"h_optimal = {_fmt(h_opt)}", f"h_trace_min = {_fmt(h_min_trace)}")
        _emit(_csv("h,trace", zip(grid, traces), comments), args.output)
    return 0


_VALIDATE_TOLERANCES = {
    # case name -> (tolerance with optimal mesh, tolerance with trace-min mesh)
    "V1": (1e-9, 1e-9),
    "V2": (1e-8, 1e-9),  # multi-well penalty for the closed-form mesh
    "V3": (1e-9, 1e-9),
    "V4": (1e-9, 1e-9),
}


class _ValidateRow(NamedTuple):
    """One validate outcome, in CSV column order; the JSON emitter reads it too."""

    case: str
    level: int
    mesh: str
    N: int
    h: float
    energy: float
    exact: float
    error: float
    tolerance: float
    status: str


_VALIDATE_JSON_FIELDS = ("case", "level", "mesh", "energy", "exact", "error", "tolerance",
                         "status")


def cmd_validate(args) -> int:
    catalog = analytic_catalog()
    if args.N < 1:
        raise ValueError(f"--N must be >= 1, got {args.N}")
    if args.case is not None:
        if not 0 <= args.case < len(catalog):
            raise ValueError(f"--case must lie in [0, {len(catalog) - 1}]")
        catalog = (catalog[args.case],)
    rows = []
    for case in catalog:
        for strategy in (MeshStrategy.optimal(), MeshStrategy.trace_minimized()):
            problem = DescmProblem(case.potential, strategy=strategy,
                                   levels_requested=case.level_index + 1)
            result = solve(problem, args.N)
            energy = result.spectrum[case.level_index]
            error = abs(float(energy) - case.exact_energy)
            tol = _VALIDATE_TOLERANCES[case.name][0 if strategy.kind == "optimal" else 1]
            rows.append(_ValidateRow(case.name, case.level_index, strategy.kind, args.N,
                                     result.h_used, energy, case.exact_energy, error, tol,
                                     "pass" if error <= tol else "FAIL"))
    failing = [r for r in rows if r.status != "pass"]
    if args.format == "json":
        payload = {
            "command": "validate",
            "N": args.N,
            "results": [{k: getattr(r, k) for k in _VALIDATE_JSON_FIELDS} for r in rows],
            "all_pass": not failing,
        }
        _emit(_json_dump(payload) + "\n", args.output)
    else:
        _emit(_csv(",".join(_ValidateRow._fields), rows), args.output)
    print(f"validate: {len(rows) - len(failing)}/{len(rows)} passed", file=sys.stderr)
    if failing:
        print(f"validate: failing: {', '.join(f'{r.case}/{r.mesh}' for r in failing)}",
              file=sys.stderr)
        return 1
    return 0


# Coefficient presets: tables 3-6 sweep one polynomial family each, rows as
# published; tables 1-2 tabulate three levels of one potential over N.
_TABLE_ROWS = {
    3: [(0.1, 0.1), (0.1, 1), (1, 1), (1, 10), (10, 10),
        (-0.1, 0.1), (-0.1, 1), (-1, 1), (-1, 10), (-10, 10)],
    4: [(0.1, 0.1, 0.1), (1, 1, 1), (0.1, 1, 10), (1, 10, 10), (10, 10, 10),
        (-0.1, 0.1, 0.1), (1, -1, 1), (-0.1, -1, 10), (-1, 10, 10), (10, -10, 10)],
    5: [(0.1, 0.1, 0.1, 0.1), (0.1, 1, 10, 10), (1, 1, 10, 10), (1, 10, 10, 10),
        (10, 10, 10, 10), (-0.1, 0.1, -0.1, 0.1), (0.1, -1, 10, 10),
        (-1, -1, 10, 10), (1, 10, -10, 10), (-10, -10, -10, 10)],
    6: [(0.1, 0.1, 0.1, 0.1, 0.1), (0.1, 0.1, 1, 1, 1), (1, 1, 1, 10, 10),
        (1, 10, 10, 10, 10), (10, 10, 10, 10, 10), (-0.1, -0.1, 0.1, 0.1, 0.1),
        (0.1, 0.1, -1, -1, 1), (-1, 1, 1, -10, 10), (1, -10, -10, 10, 10),
        (-10, -10, -10, -10, 10)],
}


def cmd_table(args) -> int:
    strategy = _mesh_strategy(args)
    if args.name in (1, 2):
        coeffs = (-1.0, 3.0, -2.0, 0.0, 0.1) if args.name == 1 else (1.0, 0.0, 0.0, 100.0)
        problem = DescmProblem(parse_potential("poly:" + ",".join(map(str, coeffs))),
                               strategy=strategy, levels_requested=3)
        header = "N,E_0,E_1,E_2"
        rows = [(n, *solve(problem, n).eigenvalues) for n in range(5, 51, 5)]
    else:
        presets = _TABLE_ROWS[args.name]
        rows = []
        for coeffs in presets:
            problem = DescmProblem(parse_potential("poly:" + ",".join(map(str, coeffs))),
                                   strategy=strategy)
            final = converge(problem, level=0, tolerance=5e-12, n_max=100).final
            rows.append((*map(float, coeffs), final.half_width, final.energy, final.delta))
        header = ",".join(f"c{i + 1}" for i in range(len(presets[0]))) + ",N,E_0,eps_0"
    if args.format == "json":
        columns = header.split(",")
        payload = {
            "command": "table",
            "name": args.name,
            "mesh": strategy.kind,
            "rows": [dict(zip(columns, row)) for row in rows],
        }
        _emit(_json_dump(payload) + "\n", args.output)
    else:
        _emit(_csv(header, rows), args.output)
    return 0


_DISPATCH = {
    "solve": cmd_solve,
    "converge": cmd_converge,
    "trace-scan": cmd_trace_scan,
    "validate": cmd_validate,
    "table": cmd_table,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except _NUMERIC_ERRORS as exc:  # first: LinAlgError is a ValueError
        print(f"descm: numerical failure: {exc}", file=sys.stderr)
        return 1
    except (PotentialSpecError, ValueError, OSError) as exc:
        print(f"descm: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
