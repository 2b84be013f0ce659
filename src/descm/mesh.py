"""Mesh-size selection for the collocation grid.

Two routes are provided. The closed form balances truncation against
discretization error through the Lambert W function:

    h = W(2^m pi^2 (m+1) N / sqrt(c_m)) / ((m+1) N).

For potentials with several wells that closed form is pessimistic, and the
mesh is instead chosen to minimize the trace of the reduced collocation
matrix over h (principle of minimal sensitivity). The trace has a closed
form requiring no matrix assembly:

    Tr(h) = (pi^2/3h^2) sum_k sech(kh)^2 + sum_k W(kh)/cosh(kh)^2,

which diverges at both h -> 0+ and h -> infinity, so an interior minimizer
exists for every truncation N >= 1. Each point evaluates cosh once, for the
kinetic term and W/cosh^2 alike. The first scan covers [1e-3, 5] on a grid
built once per process, and widens toward an edge holding its minimum. The
diagonal over that grid does not depend on N, so the scan sums columns
k = -N..N of a mirrored table (:class:`_ScanTable`) that a sweep keeps
across its blocks and grows a few times, not once per truncation; a plain
choice builds its own. The first slope pass after such a scan
runs on one of 62 grids built once per process, fixed by the scan's best
point (its cell); a sweep's cell changes every few truncations.
Inside the scan's best triple the minimizer is a zero of Tr'(h), which has a
closed form as well (:func:`_slope_terms`), so the search does
not narrow the trace itself: vectorized slope passes across the triple
bracket the zero to 1e-4 relative (two passes from the first window), and
inverse cubic interpolation places it, to 1e-13 relative on smooth wells and
1e-9 on the roughest tested. That zero is the mesh size: the trace does not
resolve h much below 1e-8, where neighbouring traces differ by a few ulp, so
a trace call around it would pick rounding. Only where the slope rises
through zero more than once does one more trace call, over those zeros,
pick the lowest dip. The last pass needs only the four slopes around the
rise: the pass before predicts where the rise lies, and the last pass
evaluates a slice of its 64-point cell there, six points formed alone as
Python floats by the cell's own arithmetic, the same floats with the same
slopes; the slice's cubic zero is read on Python floats too. So a mesh
choice from the first window costs one trace call, one full slope pass
and one 6-point slice (a second slice where the first misses the rise),
against eight trace calls for grid refinement, and the trace-minimized h
depends on the potential and N alone.

A full slope pass runs over 64-point cells, one per rise of the pass
before, each a 1-D np.linspace grid. Every pass, full or sliced, comes
back as a list of Python floats per grid, and one rise rule
(:func:`_rises`) reads them, as the cubic zero does. Nearly every choice
sees one rise per pass, kept as a bracket of two Python floats, on which
the bracket test and the next cell run. Several rises (Chebyshev wells at
N <= 2, widened windows) make several cells, and every one of them is
refined again until every bracket is 1e-4 relative wide.

The search is written once, as a generator (:func:`_search`) that runs
its scans itself and yields every slope pass it needs: the first cell, the
cells of a pass, a slice or a moved slice. :func:`_lockstep` runs the
searches of several truncations, such as the block a sweep plans, in
rounds. Each round advances every search still running to the pass it
asks for next, and one :func:`_slope_passes` call evaluates all of those
passes: one set of slope terms over a padded (rows, S) grid, S the largest
N, with one set of rows per distinct grid object, so the searches whose
first scans share a cell share its rows. Each request sums its own N
columns of them, so every slope is bit for bit the one its pass alone
gives. The per-pass cost that does not grow with N is then paid once a
round, first passes included. The scans all run in the first round, in N
order, so the sweep's table grows as in searches made one after the other.
A search that raises is held, for the caller to raise when it solves that
N, and the others run on. :func:`trace_minimized_mesh_size` is that
driver with one N.

Every scan goes through the public :func:`collocation_trace`, the first
window's with the sweep's table as a private keyword, so that a wrapper of
the public name (as the benchmark's timing layers are) sees every trace
call.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .assembly import (CollocationOverflowError, check_half_width, check_mesh_size,
                       transformed_potential_scaled)
from .potential import EvenPolynomialPotential
from .sinc_basis import D2_DIAGONAL

MESH_KINDS = ("optimal", "trace-min", "fixed")  # the values of MeshStrategy.kind
_FIRST_WINDOW = (1e-3, 5.0)
_SCAN_POINTS = 64
_BRACKET = 1e-4  # relative width of the slope's bracket at which interpolation takes over
_LAST_CELL = (_SCAN_POINTS - 1) * _BRACKET  # relative width of a bracket whose cell is the last
_SLICE = 6  # points of the last cell evaluated around its predicted zero
_FIRST_GRID = np.exp(np.linspace(*map(math.log, _FIRST_WINDOW), _SCAN_POINTS))
_FIRST_GRID.setflags(write=False)


def _first_pass_grids():
    """The first slope pass's grid for each best point i = 1..62 of the first
    scan, np.linspace(_FIRST_GRID[i - 1], _FIRST_GRID[i + 1], 64) as a
    read-only 1-D cell."""
    grids = np.ascontiguousarray(
        np.linspace(_FIRST_GRID[:-2], _FIRST_GRID[2:], _SCAN_POINTS, axis=1))
    grids.setflags(write=False)
    return tuple(grids)


_FIRST_PASS = _first_pass_grids()  # built once


@dataclass(frozen=True)
class MeshStrategy:
    """How the mesh size is chosen when solving at a given truncation.

    ``kind`` is one of ``"optimal"`` (closed form), ``"trace-min"``
    (trace minimization) or ``"fixed"`` (use ``fixed_h`` as given).
    """

    kind: str = "optimal"
    fixed_h: float | None = None

    def __post_init__(self):
        if self.kind not in MESH_KINDS:
            raise ValueError(f"unknown mesh strategy {self.kind!r}")
        if self.kind == "fixed":
            if self.fixed_h is None or not (0.0 < self.fixed_h < math.inf):
                raise ValueError("the fixed mesh strategy needs a positive finite mesh size h")
        elif self.fixed_h is not None:
            raise ValueError("a mesh size h is only meaningful with the fixed mesh strategy")

    @classmethod
    def optimal(cls) -> "MeshStrategy":
        return cls(kind="optimal")

    @classmethod
    def trace_minimized(cls) -> "MeshStrategy":
        return cls(kind="trace-min")

    @classmethod
    def fixed(cls, h: float) -> "MeshStrategy":
        return cls(kind="fixed", fixed_h=float(h))


def lambert_w0(z: float) -> float:
    """Principal-branch Lambert W on z >= 0: the w with w e^w = z, and
    W(inf) = inf; a NaN z is rejected as a negative one is.

    Halley iteration seeded by log1p(z) for z < e and log z - log log z
    beyond; the seeds keep the iteration inside the basin of quadratic
    convergence for every nonnegative argument. It stops at a relative
    residual, |w e^w - z| <= 1e-14 z, below z = 1 as above it: there w is
    about z, and an absolute test would stop before w is accurate.
    """
    z = float(z)
    if not z >= 0.0:  # NaN as well
        raise ValueError(f"lambert_w0 requires z >= 0, got {z}")
    if z == 0.0:
        return 0.0
    if z == math.inf:
        return z
    w = math.log1p(z) if z < math.e else math.log(z) - math.log(math.log(z))
    for _ in range(50):
        ew = math.exp(w)
        residual = w * ew - z
        if abs(residual) <= 1e-14 * z:
            break
        w -= residual / (ew * (w + 1.0) - (w + 2.0) * residual / (2.0 * w + 2.0))
    return w


def _lambert_w0_of_log(log_z: float) -> float:
    """W(z) given log z >= 1, for z beyond the double range.

    Newton iteration on w + log w = log z, seeded by log z - log log z.
    """
    w = log_z - math.log(log_z)
    for _ in range(50):
        step = (w + math.log(w) - log_z) * w / (w + 1.0)
        w -= step
        if abs(step) <= 1e-15 * w:
            break
    return w


def optimal_mesh_size(potential: EvenPolynomialPotential, half_width: int) -> float:
    """Closed-form mesh size W(2^m pi^2 (m+1) N / sqrt(c_m)) / ((m+1) N).

    Only the leading coefficient and the half-degree enter; inner
    coefficients and the constant do not affect the decay rate. When the
    argument overflows a double, W is found from its logarithm instead.
    """
    check_half_width(half_width)
    m = potential.degree_parameter
    c_m = potential.leading_coefficient
    try:
        arg = 2.0**m * math.pi**2 * (m + 1) * half_width / math.sqrt(c_m)
    except OverflowError:  # 2.0**m for m >= 1024
        arg = math.inf
    if arg < math.inf:
        w = lambert_w0(arg)
    else:
        w = _lambert_w0_of_log(
            m * math.log(2.0) + math.log(math.pi**2 * (m + 1) * half_width) - 0.5 * math.log(c_m)
        )
    return w / ((m + 1) * half_width)


# far out cosh^2, V and the sum overflow to +inf (the kinetic term flushes
# to zero) as expected; +inf and -inf entries sum to an undefined NaN; at
# h below about 1e-162 h*h underflows to 0 and the kinetic term is +inf; as
# a decorator, like every error state here, it costs half a with block's
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def collocation_trace(potential: EvenPolynomialPotential, half_width: int,
                      h: float | np.ndarray, *, _scan=None) -> float | np.ndarray:
    """Trace of the reduced collocation matrix, without assembling it.

    ``h`` may be an array of mesh sizes, each trace bit for bit the scalar
    call's. The diagonal is evaluated on the half grid k = 0..N only and
    mirrored to k = -N..N before summing. cosh(-x) == cosh(x) and
    sinh(-x) == -sinh(x) hold exactly in IEEE arithmetic and V reads only
    sinh(x)^2, so each mirrored value is the one the point -kh would give:
    the summed row, its order and hence every trace are those of the full
    grid, and equal ``np.trace`` of the full (2N+1)x(2N+1) matrix bit for
    bit. The parity blocks hold the same trace, summed in another order.

    ``_scan``, private to the trace-min search, is its sweep's first-scan
    table (:class:`_ScanTable`), and ``h`` is then the first window's grid
    ``_FIRST_GRID``. The mirrored diagonal is read from the table, which is
    built by the same steps and holds the same bits in the same order, and
    each row is summed in place; that grid is valid by construction, so its
    mesh sizes are not checked again. Every other ``h`` is.

    Where V(sinh kh) is -inf at some points and +inf at others, the trace is
    undefined and comes back as NaN, without a warning.
    """
    check_half_width(half_width)
    if _scan is None:
        half = _half_diagonal(potential, half_width, check_mesh_size(h))
        diagonal = np.concatenate([half[..., :0:-1], half], axis=-1)
    else:
        diagonal = _scan.columns(potential, half_width)
    trace = np.add.reduce(diagonal, -1)
    return float(trace) if trace.ndim == 0 else trace


def _half_diagonal(potential: EvenPolynomialPotential, half_width: int, h: np.ndarray,
                   start: int = 0):
    """Diagonal at k = start..N on a new last axis of ``h``; call with overflow ignored."""
    points = np.multiply.outer(h, np.arange(start, half_width + 1))
    cosh2 = np.cosh(points) ** 2
    half = -D2_DIAGONAL / ((h * h)[..., np.newaxis] * cosh2)
    half += transformed_potential_scaled(potential, points, cosh2)
    return half


class _ScanTable:
    """The diagonal over _FIRST_GRID for the first scans of one sweep of one
    potential. It does not depend on N, so ``scan`` holds it at k = -M..M,
    mirrored from k = 0..M as the trace mirrors it, and every first scan
    sums its columns k = -N..N in place. A larger N extends it on both sides
    to at least twice its half width M + 1; only new columns are evaluated,
    each element by the same steps as in a fresh call."""

    __slots__ = ("scan",)

    def __init__(self):
        self.scan = np.empty((_SCAN_POINTS, 0))

    def columns(self, potential: EvenPolynomialPotential, half_width: int):
        """Columns k = -N..N of the mirrored diagonal, a view; call with overflow ignored."""
        reach = (self.scan.shape[1] + 1) // 2  # columns k = 0..reach - 1
        if reach <= half_width:
            width = max(half_width + 1, 2 * reach)
            new = _half_diagonal(potential, width - 1, _FIRST_GRID, reach)
            left = new[:, ::-1] if reach else new[:, :0:-1]  # k = 0 once only
            self.scan = np.concatenate([left, self.scan, new], axis=1)
            reach = width
        return self.scan[:, reach - 1 - half_width : reach + half_width]


def _slope_passes(potential: EvenPolynomialPotential, requests) -> list:
    """The slopes Tr'(h) of every request (N, grids), a list of 1-D grids at
    one truncation: per request, one list of Python floats per grid. One
    :func:`_slope_terms` call evaluates the terms of each distinct grid
    object once, on a padded (rows, S) grid, S the largest N, so a first-pass
    cell that several searches ask for costs one set of rows. Each request
    sums the first N columns of its grids' rows, as a pass over that grid
    alone sums its terms, so every slope is that pass's bit for bit. Call
    with overflow and invalid ignored."""
    rows, grids, spans, height = {}, [], [], 0  # first row by grid id; runs of rows
    for n, request in requests:
        for grid in request:
            start = rows.get(id(grid))
            if start is None:
                start = rows[id(grid)] = height
                height += len(grid)
                grids.append(grid)
            end = start + len(grid)
            if spans and spans[-1][0] == n and spans[-1][2] == start:
                start = spans.pop()[1]  # one run of rows summed over the same N
            spans.append((n, start, end))
    terms, kinetic = _slope_terms(potential, np.concatenate(grids),
                                  np.arange(1.0, max(n for n, _ in requests) + 1))
    slope = np.empty(sum(end - start for _, start, end in spans))
    row = 0
    for n, start, end in spans:
        np.add.reduce(terms[start:end, :n], -1, out=slope[row : row + end - start])
        row += end - start
    slope *= 2.0
    if len(slope) > height:  # a shared grid's rows serve several requests
        kinetic = np.concatenate([kinetic[start:end] for _, start, end in spans])
    slope += kinetic
    values, row, slopes = slope.tolist(), 0, []
    for _, request in requests:
        slopes.append([])
        for grid in request:
            slopes[-1].append(values[row : row + len(grid)])
            row += len(grid)
    return slopes


def _slope_terms(potential: EvenPolynomialPotential, h: np.ndarray, k: np.ndarray):
    """The terms t_k of dTr/dh on a new last axis of ``h``, and 2 D2 / h^3;
    call with overflow and invalid ignored.

    With c = cosh kh, tau = tanh kh, u = sech^2 kh and D2 the delta2 diagonal
    (-pi^2/3), the derivative of the trace term by term is

        Tr'(h) = sum_k [ 2 D2 (1/h + k tau) u / h^2 + k W'(kh) ],
        W'(t)  = -(1/2) u tau + 3 u^2 tau + V'(sinh t) c,

    W' the derivative of W/cosh^2. Each term is even in k, and the k = 0 term
    is 2 D2 / h^3, so Tr'(h) = 2 D2 / h^3 + 2 sum_(k=1..N) t_k with

        t_k = u (2 D2 / h^3 + k tau (2 D2 / h^2 + 3u - 1/2)) + k V'(sinh kh) c.

    Far out the terms overflow to +inf, and the kinetic part is -inf where
    1/h^2 overflows; mixed infinities give NaN.
    """
    inverse = 1.0 / h
    kinetic = (2.0 * D2_DIAGONAL) * inverse * inverse  # 2 D2 / h^2
    points = np.multiply.outer(h, k)
    c = np.cosh(points)
    sech2 = 1.0 / (c * c)
    terms = 3.0 * sech2
    terms += (kinetic - 0.5)[..., np.newaxis]
    terms *= np.tanh(points)
    terms *= k
    kinetic *= inverse  # 2 D2 / h^3
    terms += kinetic[..., np.newaxis]
    terms *= sech2
    potential_part = potential.derivative(np.sinh(points))
    potential_part *= c
    potential_part *= k
    terms += potential_part
    return terms, kinetic


def _best_trace(grid: np.ndarray, traces: np.ndarray) -> int:
    """Index of the smallest trace, ranking an undefined (NaN) trace as +inf.

    A trace of -inf ranks lowest but has no minimum to refine toward: the
    diagonal sums below the double range, so no mesh size is chosen.
    """
    best = int(traces.argmin())
    if not math.isfinite(traces[best]):
        if math.isnan(traces[best]):  # argmin returns the first NaN, if any
            best = int(np.where(np.isnan(traces), np.inf, traces).argmin())
        if traces[best] == -math.inf:
            raise CollocationOverflowError(
                f"collocation trace overflows to -inf at h = {grid[best]:.6g}"
            )
    return best


def _rises(slope: list[float]) -> list[int]:
    """Indices j where a pass's slopes, a list of Python floats, rise through
    0 from point j to point j + 1: -inf < slope[j] < 0 <= slope[j + 1]. A
    NaN is neither side of 0, and a rise from -inf (V' below the double
    range) places no zero, so neither makes a rise. The test for -inf runs
    at rises only."""
    return [j for j in range(len(slope) - 1)
            if slope[j] < 0.0 <= slope[j + 1] and slope[j] > -math.inf]


def _stencil(i: int, points: int) -> int:
    """First of the four grid points that interpolate a rise at point i of ``points``."""
    return min(max(i - 1, 0), points - 4)


def _interpolated_zero(grid: list[float], slope: list[float], i: int) -> float:
    """Zero of the slope between grid[i] and grid[i + 1], where it rises through 0.

    Inverse cubic interpolation: the Lagrange polynomial in the slope through
    the four grid points nearest the bracket, evaluated at slope 0. Where
    those four slopes do not rise strictly, or the cubic leaves the bracket,
    the zero of the secant through the bracket's ends is taken instead.
    ``grid`` and ``slope`` are lists of Python floats, and the Lagrange sum is
    written out term by term, each product and the sum in the order of a loop
    over the points, from 0.0. A division by 0 would raise; none occurs,
    since the bracket's slopes straddle 0 and the cubic's four rise strictly.
    """
    j = _stencil(i, len(grid))
    x0, x1, x2, x3 = grid[j : j + 4]
    s0, s1, s2, s3 = slope[j : j + 4]
    a, b, sa, sb = grid[i], grid[i + 1], slope[i], slope[i + 1]
    secant = a - sa * ((b - a) / (sb - sa))
    if not s0 < s1 < s2 < s3:
        return secant
    zero = (0.0 + x0 * (s1 / (s1 - s0)) * (s2 / (s2 - s0)) * (s3 / (s3 - s0))
            + x1 * (s0 / (s0 - s1)) * (s2 / (s2 - s1)) * (s3 / (s3 - s1))
            + x2 * (s0 / (s0 - s2)) * (s1 / (s1 - s2)) * (s3 / (s3 - s2))
            + x3 * (s0 / (s0 - s3)) * (s1 / (s1 - s3)) * (s2 / (s2 - s3)))
    return zero if a <= zero <= b else secant


def _slice_points(a: float, b: float, start: int) -> list[float]:
    """Points start..start + 5 of the cell np.linspace(a, b, 64) as Python
    floats, formed alone by its arithmetic: k times the step, plus a, and b
    in place of the cell's last point."""
    step = (b - a) / (_SCAN_POINTS - 1)
    points = [k * step + a for k in range(start, start + _SLICE)]
    if start == _SCAN_POINTS - _SLICE:
        points[-1] = b
    return points


def _sliced_last_pass(a: float, b: float, guess: float):
    """The zero that the last slope pass, over the cell np.linspace(a, b, 64),
    interpolates, read from _SLICE of its points around the predicted zero
    ``guess``. A sub-generator of :func:`_search`: it yields each slice's
    points as a pass of one grid and is sent back their slopes.

    The slice's six points are the cell's own floats (:func:`_slice_points`)
    and each slope sums its own row, so the slice's slopes are the full
    pass's bit for bit. Past that one slope pass, every step runs on Python
    floats. One rise whose four interpolation points lie in the slice, and
    whose bracket is _BRACKET relative wide, gives the full pass's zero,
    provided that pass sees no other rise. A slice without such a rise is
    moved once, to the secant zero through its ends. None, so that the full
    pass runs, where that slice fails too, where a slice shows several rises,
    or where the bracket is still wider.
    """
    step = (b - a) / (_SCAN_POINTS - 1)
    start = None
    for _ in range(2):
        if not math.isfinite(guess):
            return None
        previous = start
        # the slice holds points i - 2..i + 3 around the predicted bracket [i, i + 1]
        start = min(max(int((guess - a) / step) - 2, 0), _SCAN_POINTS - _SLICE)
        if start == previous:
            return None
        points = _slice_points(a, b, start)
        (slope,) = yield [np.array(points)]
        rises = _rises(slope)
        if len(rises) > 1:
            return None
        if rises and _stencil(start + rises[0], _SCAN_POINTS) == start + _stencil(rises[0], _SLICE):
            i = rises[0]
            if points[i + 1] - points[i] > _BRACKET * points[i]:
                return None
            return _interpolated_zero(points, slope, i)
        x0, x1, s0, s1 = points[0], points[-1], slope[0], slope[-1]
        if not s0 < s1:
            return None
        guess = x0 - s0 * ((x1 - x0) / (s1 - s0))
    return None


def _search(potential: EvenPolynomialPotential, half_width: int, scan: _ScanTable):
    """The search of :func:`trace_minimized_mesh_size` at one N, as a
    generator that returns h. It makes its scans itself, the first one from
    the sweep's table ``scan``; every slope pass
    (the first cell, which after the first window is a shared _FIRST_PASS
    grid, the cells of a pass, a slice or a moved slice) it yields as a list
    of 1-D grids, and it is sent their slopes, one list of Python floats per
    grid. Run it through :func:`_lockstep`."""
    lo, hi = _FIRST_WINDOW
    grid, table = _FIRST_GRID, scan
    while True:
        best = _best_trace(grid, collocation_trace(potential, half_width, grid, _scan=table))
        if best == 0:
            lo = lo * lo / hi
        elif best == _SCAN_POINTS - 1:
            hi = hi * hi / lo
        else:
            break
        grid, table = np.exp(np.linspace(math.log(lo), math.log(hi), _SCAN_POINTS)), None
    if grid is _FIRST_GRID:
        cells = [_FIRST_PASS[best - 1]]
    else:
        cells = [np.linspace(grid.item(best - 1), grid.item(best + 1), _SCAN_POINTS)]
    slopes = yield cells
    # every cell here lies inside a scanned window, so none needs checking
    while True:
        rises = [(cell, slope, i) for cell, slope in zip(cells, slopes) for i in _rises(slope)]
        brackets = [(cell.item(i), cell.item(i + 1)) for cell, _, i in rises]
        if all(b - a <= _BRACKET * a for a, b in brackets):  # or no rise at all
            break
        if len(cells) == len(rises) == 1:
            (a, b), (cell, slope, i) = brackets[0], rises[0]
            if b - a <= _LAST_CELL * a:
                guess = _interpolated_zero(cell.tolist(), slope, i)
                zero = yield from _sliced_last_pass(a, b, guess)
                if zero is not None:
                    return zero
        cells = [np.linspace(a, b, _SCAN_POINTS) for a, b in brackets]
        slopes = yield cells
    if not rises:
        candidates = np.concatenate(cells)
    else:
        zeros = [_interpolated_zero(cell.tolist(), slope, i) for cell, slope, i in rises]
        if len(zeros) == 1:
            return zeros[0]
        candidates = np.array(zeros)
    traces = collocation_trace(potential, half_width, candidates)
    return candidates.item(_best_trace(candidates, traces))


@np.errstate(over="ignore", invalid="ignore")  # for the slope passes
def _lockstep(potential: EvenPolynomialPotential, half_widths, _scan=None) -> list:
    """The searches (:func:`_search`) of every truncation of ``half_widths``,
    run in lockstep: per N, its trace-minimized h or the exception its search
    raised, held for the caller to raise when it solves that N. ``_scan`` is
    the sweep's first-scan table; without it the call builds its own.

    Each round advances every search still running, in N order, to the
    slope pass it asks for next, and one :func:`_slope_passes` call
    evaluates all of those passes. The first round runs each search's scans
    in N order, so the table grows as in searches made one by one, and
    evaluates their first passes together. A search that raises leaves the
    others running."""
    scan = _ScanTable() if _scan is None else _scan
    outcomes = [None] * len(half_widths)
    running = [(i, n, _search(potential, n, scan), None) for i, n in enumerate(half_widths)]
    while running:
        asked = []
        for i, n, search, slopes in running:
            try:
                asked.append((i, n, search, search.send(slopes)))
            except StopIteration as stop:
                outcomes[i] = stop.value
            except Exception as error:  # raised at its own truncation, if ever
                outcomes[i] = error
        if not asked:
            break
        slopes = _slope_passes(potential, [(n, grids) for _, n, _, grids in asked])
        running = [(i, n, search, got) for (i, n, search, _), got in zip(asked, slopes)]
    return outcomes


def trace_minimized_mesh_size(potential: EvenPolynomialPotential, half_width: int) -> float:
    """Mesh size minimizing the collocation trace.

    A 64-point log-spaced scan of the first window [1e-3, 5] locates the best
    bracketing triple (ties broken toward smaller h). While that best point is
    an edge of the window, the window doubles its log-width on that side and
    is scanned again. No unimodality is assumed beyond what each scan resolves.

    The widening ends because the trace is large at both ends. Toward small
    h, Tr(h) >= pi^2/(3h^2) + (2N+1)(min V - 1/2), which tends to +inf. Toward
    large h, V(sinh kh) overflows to +inf, since Horner's rule starts from
    the positive leading coefficient; an infinite trace never beats a finite
    one, so the window stops growing to the right.

    Inside the triple the minimum is a zero of Tr'(h) where the slope rises
    through 0. Slope passes over 64-point linear cells narrow to each cell
    holding such a rise, until the cells are 1e-4 relative wide: two passes
    across a triple of the first window, more across a widened one. Each
    cell is a 1-D grid, each rise is kept as a bracket of two floats, and
    every cell of a pass is refined again until every bracket is that
    narrow. The zero is then interpolated in each remaining cell. Where a
    pass of one cell sees one rise whose next cell will be the last, its own
    zero predicts where the rise lies in that cell, and the last pass
    evaluates only 6 of the cell's 64 points there, moved once if they miss
    the rise. Their slopes are the full pass's bit for bit; the full pass
    runs where no slice shows the rise alone.

    One zero is the mesh size as it stands: neighbouring traces differ by
    rounding alone within about 1e-8 relative of it, so no trace call is
    made. Where the last pass saw several rises, one trace call over their
    zeros picks the lowest (the first, on a tie). If a pass sees none (the
    slope is NaN there, or noise), a trace call picks among the pass's grid
    points instead; so it does where the slope rises only from -inf, where
    V' overflows below the double range and no zero can be placed.

    A scanned trace of -inf raises :class:`CollocationOverflowError`, and an
    undefined (NaN) trace ranks as +inf. This is the lockstep search of a
    sweep's planned block (``mesh_size_for``) with one N.
    """
    (h,) = _lockstep(potential, (half_width,))
    if isinstance(h, Exception):
        raise h
    return h


def mesh_size_for(potential: EvenPolynomialPotential, half_widths: Sequence[int],
                  strategy: MeshStrategy, _scan=None) -> list:
    """Per truncation N of ``half_widths``, its mesh size by the strategy or
    the exception its choice raised, for the caller to raise when it solves
    that N: a sweep asks for the block it plans, a plain solve for its one
    N. Trace-minimized sizes come from one lockstep search of them all;
    ``_scan``, private to ``converge``, is the sweep's first-scan table."""
    if strategy.kind == "optimal":
        return [optimal_mesh_size(potential, n) for n in half_widths]
    if strategy.kind == "trace-min":
        return _lockstep(potential, half_widths, _scan)
    return [float(strategy.fixed_h)] * len(half_widths)
