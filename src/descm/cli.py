"""Command-line front end.

Commands: solve (spectrum at one truncation), converge (sweep N until the
successive difference stops moving), trace-scan (trace-vs-mesh profile for
plotting), validate (the four analytically solvable cases), table (bundled
parameter presets). Each command builds its rows once and hands them to
``_write``, the one writer, which puts them on stdout or --output as CSV or
JSON with numbers at 17 significant digits; diagnostics go to stderr. Each
input rule is checked once: by the parser, ``parse_potential`` or the library.

Exit codes: 0 success, 1 numerical failure or out of memory (one line on
stderr, no traceback), 2 bad arguments, potential spec or unwritable
--output, 3 converge hit N_max without meeting tolerance.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import chain
from typing import NamedTuple

import numpy as np

from .assembly import CollocationOverflowError
from .mesh import (
    MESH_KINDS,
    MeshStrategy,
    collocation_trace,
    optimal_mesh_size,
    trace_minimized_mesh_size,
)
from .potential import (EvenPolynomialPotential, PotentialSpecError, analytic_catalog,
                        parse_potential)
from .solver import DescmProblem, converge, solve

_NUMERIC_ERRORS = (CollocationOverflowError, np.linalg.LinAlgError)
_TRACE_SCAN_BLOCK = 1 << 17  # values per trace-scan call, about 1 MB a temporary


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


_json_text = json.JSONEncoder(ensure_ascii=False).encode


class _Table(NamedTuple):
    """CSV rows as a JSON value: a list of objects keyed by the header's columns."""

    header: str
    rows: list


def _json_values(values, pad: str) -> list[str]:
    """JSON text of each value, the one formatter of every scalar: a float
    (numpy's too) at 17 significant digits by ``%``, faster than format(),
    or null if not finite; an int, not a bool, in full; a dict, list or
    ``_Table`` by ``_json`` at ``pad``; anything else as ``json`` writes it,
    strings escaped."""
    return [("%.17g" % v if math.isfinite(v) else "null") if isinstance(v, float)
            else str(v) if type(v) is int
            else _json(v, pad) if isinstance(v, (dict, list, _Table))
            else _json_text(v) for v in values]


def _json(value, pad: str = "") -> str:
    """JSON text of a dict, list or ``_Table``: one member per line, two
    spaces past ``pad`` (its closing bracket's indent). A table is written
    straight from its header and rows, with no record built: each row is
    one object pairing the header's keys (which hold no ``%``) with its
    values, and a row template repeated once per row is filled by a single
    ``%`` with the text of every value in row order."""
    inner = pad + "  "
    if isinstance(value, dict):
        members = [f'{inner}"{k}": {text}'
                   for k, text in zip(value, _json_values(value.values(), inner))]
        return "{\n" + ",\n".join(members) + f"\n{pad}}}"
    if isinstance(value, _Table):
        fields = ",\n".join(f'{inner}  "{column}": %s' for column in value.header.split(","))
        rows = ",\n".join([f"{inner}{{\n{fields}\n{inner}}}"] * len(value.rows))
        texts = _json_values(chain.from_iterable(value.rows), inner + "  ")
        return f"[\n{rows % tuple(texts)}\n{pad}]"
    return "[\n" + ",\n".join([inner + text for text in _json_values(value, inner)]) + f"\n{pad}]"


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


def _write(args, payload: dict, header: str, rows, comments=()) -> None:
    """The one writer: ``payload`` as JSON, or ``header``, ``rows`` and
    ``comments`` as CSV, to --output or stdout."""
    if args.format == "json":
        text = _json({"command": args.command, **payload}) + "\n"
    else:
        text = _csv(header, rows, comments)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _mesh_strategy(args) -> MeshStrategy:
    return MeshStrategy(kind=args.mesh, fixed_h=args.h)


def _add_output(sub: argparse.ArgumentParser, default_format: str) -> None:
    sub.add_argument("--format", choices=["csv", "json"], default=default_format)
    sub.add_argument("--output", default=None, help="write data here instead of stdout")


def _add_mesh(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--mesh", choices=MESH_KINDS, default="optimal",
                     help="mesh size selection strategy")
    sub.add_argument("--h", type=float, default=None, help="mesh size for --mesh fixed")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later call.

    Parsing leaves no state in it, so ``main`` can be called any number of
    times in one process.
    """
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
    p.add_argument("--case", type=int, default=None, choices=range(4),
                   help="restrict to one catalog index")
    p.add_argument("--N", type=int, default=45)
    _add_output(p, default_format="csv")

    p = sub.add_parser("table", help="bundled parameter presets")
    p.add_argument("--name", type=int, required=True, choices=[1, 2, 3, 4, 5, 6])
    _add_mesh(p)
    _add_output(p, default_format="csv")

    return parser


def cmd_solve(args) -> int:
    problem = DescmProblem(parse_potential(args.potential), strategy=_mesh_strategy(args),
                           levels_requested=args.levels)
    result = solve(problem, args.N)
    payload = {
        "potential": args.potential,
        "N": args.N,
        "levels": args.levels,
        "mesh": problem.strategy.kind,
        "h": result.h_used,
        "eigenvalues": [float(v) for v in result.eigenvalues],
    }
    _write(args, payload, "level,E", enumerate(result.eigenvalues))
    return 0


def cmd_converge(args) -> int:
    problem = DescmProblem(parse_potential(args.potential), strategy=_mesh_strategy(args))
    trace = converge(
        problem,
        level=args.level,
        tolerance=args.tolerance,
        n_step=args.n_step,
        n_max=args.n_max,
        n_start=args.n_start,
    )
    header = "N,h,E_n,eps_n"
    rows = [(r.half_width, r.h, r.energy, r.delta) for r in trace.records]
    payload = {
        "potential": args.potential,
        "level": args.level,
        "tolerance": args.tolerance,
        "mesh": problem.strategy.kind,
        "converged": trace.converged,
        "N_final": trace.final.half_width,
        "E_final": trace.final.energy,
        "records": _Table(header, rows),
    }
    _write(args, payload, header, rows)
    if not trace.converged:
        print(
            f"converge: tolerance {args.tolerance:g} not met by N = {trace.final.half_width}",
            file=sys.stderr,
        )
        return 3
    return 0


def cmd_trace_scan(args) -> int:
    potential = parse_potential(args.potential)
    if args.points < 2 or not (0.0 < args.h_min < args.h_max < math.inf):
        raise ValueError("need --points >= 2 and 0 < h-min < h-max < inf")
    grid = np.exp(np.linspace(math.log(args.h_min), math.log(args.h_max), args.points))
    # a trace call's temporaries hold (2N+1) values per mesh size, so the grid
    # goes in blocks of about _TRACE_SCAN_BLOCK values; each mesh size's trace
    # is its own, so the blocks change no bit
    rows = max(1, _TRACE_SCAN_BLOCK // (2 * args.N + 1))
    traces = np.concatenate([collocation_trace(potential, args.N, grid[i : i + rows])
                             for i in range(0, len(grid), rows)])
    h_opt = optimal_mesh_size(potential, args.N)
    h_min_trace = trace_minimized_mesh_size(potential, args.N)
    header = "h,trace"
    rows = list(zip(grid, traces))
    payload = {
        "potential": args.potential,
        "N": args.N,
        "h_optimal": h_opt,
        "h_trace_min": h_min_trace,
        "scan": _Table(header, rows),
    }
    comments = (f"h_optimal = {_fmt(h_opt)}", f"h_trace_min = {_fmt(h_min_trace)}")
    _write(args, payload, header, rows, comments)
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
    if args.case is not None:
        catalog = (catalog[args.case],)
    rows = []
    for case in catalog:
        for strategy in (MeshStrategy.optimal(), MeshStrategy.trace_minimized()):
            # level n is entry n // 2 of the block of parity (-1)^n, as in converge
            index = case.level_index // 2
            problem = DescmProblem(case.potential, strategy=strategy, levels_requested=index + 1)
            result = solve(problem, args.N, parity=(-1) ** case.level_index)
            energy = result.spectrum[index]
            error = abs(float(energy) - case.exact_energy)
            tol = _VALIDATE_TOLERANCES[case.name][0 if strategy.kind == "optimal" else 1]
            rows.append(_ValidateRow(case.name, case.level_index, strategy.kind, args.N,
                                     result.h_used, energy, case.exact_energy, error, tol,
                                     "pass" if error <= tol else "FAIL"))
    failing = [r for r in rows if r.status != "pass"]
    payload = {
        "N": args.N,
        "results": [{k: getattr(r, k) for k in _VALIDATE_JSON_FIELDS} for r in rows],
        "all_pass": not failing,
    }
    _write(args, payload, ",".join(_ValidateRow._fields), rows)
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
        problem = DescmProblem(EvenPolynomialPotential(coeffs), strategy=strategy,
                               levels_requested=3)
        header = "N,E_0,E_1,E_2"
        rows = [(n, *solve(problem, n).eigenvalues) for n in range(5, 51, 5)]
    else:
        presets = _TABLE_ROWS[args.name]
        rows = []
        for coeffs in presets:
            problem = DescmProblem(EvenPolynomialPotential(coeffs), strategy=strategy)
            final = converge(problem, level=0, tolerance=5e-12, n_max=100).final
            rows.append((*map(float, coeffs), final.half_width, final.energy, final.delta))
        header = ",".join(f"c{i + 1}" for i in range(len(presets[0]))) + ",N,E_0,eps_0"
    payload = {"name": args.name, "mesh": strategy.kind, "rows": _Table(header, rows)}
    _write(args, payload, header, rows)
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
    except MemoryError as exc:  # such as an N whose blocks do not fit
        print(f"descm: out of memory: {exc}", file=sys.stderr)
        return 1
    except (PotentialSpecError, ValueError, OSError) as exc:
        print(f"descm: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
