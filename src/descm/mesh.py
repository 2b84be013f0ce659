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
exists for every truncation N >= 1; repeated grid scans of the trace find it.
The first scan covers [1e-3, 5]; while its minimum lies on an edge, the
window widens toward that edge, so the search always returns. Refinement
then narrows the best triple to a fixed relative width of 1e-10, so the
trace-minimized h depends on the potential and N alone.
The trace does not resolve h much below 1e-8 relative: by then neighbouring
traces differ by a few ulp, so the last passes to 1e-10 choose among
rounding noise. They cost two trace calls at most and keep the search's
stopping rule simple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .de_map import transformed_potential_scaled
from .potential import EvenPolynomialPotential
from .sinc_basis import D2_DIAGONAL

_E = math.e

_FIRST_WINDOW = (1e-3, 5.0)
_SCAN_POINTS = 64
_RESOLUTION = 1e-10  # relative width at which refinement stops


@dataclass(frozen=True)
class MeshStrategy:
    """How the mesh size is chosen when solving at a given truncation.

    ``kind`` is one of ``"optimal"`` (closed form), ``"trace-min"``
    (trace minimization) or ``"fixed"`` (use ``fixed_h`` as given).
    """

    kind: str = "optimal"
    fixed_h: float | None = None

    def __post_init__(self):
        if self.kind not in ("optimal", "trace-min", "fixed"):
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
    """Principal-branch Lambert W on z >= 0: the w with w e^w = z.

    Halley iteration seeded by log1p(z) for z < e and log z - log log z
    beyond; the seeds keep the iteration inside the basin of quadratic
    convergence for every nonnegative argument.
    """
    z = float(z)
    if z < 0.0:
        raise ValueError(f"lambert_w0 requires z >= 0, got {z}")
    if z == 0.0:
        return 0.0
    w = math.log1p(z) if z < _E else math.log(z) - math.log(math.log(z))
    for _ in range(50):
        ew = math.exp(w)
        residual = w * ew - z
        if abs(residual) <= 1e-14 * max(1.0, z):
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
    if half_width < 1:
        raise ValueError(f"truncation half-width must be >= 1, got {half_width}")
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


def collocation_trace(potential: EvenPolynomialPotential, half_width: int,
                      h: float | np.ndarray) -> float | np.ndarray:
    """Trace of the reduced collocation matrix, without assembling it.

    ``h`` may be an array of mesh sizes, each trace bit for bit the scalar
    call's. The diagonal is evaluated on the half grid k = 0..N only and
    mirrored to k = -N..N before summing. cosh(-x) == cosh(x) and
    sinh(-x) == -sinh(x) hold exactly in IEEE arithmetic and V reads only
    sinh(x)^2, so each mirrored value is the one the point -kh would give:
    the summed row, its order and hence every trace are those of the full
    grid, and equal ``np.trace`` of the assembled matrix bit for bit.
    """
    if half_width < 0:
        raise ValueError(f"truncation half-width must be >= 0, got {half_width}")
    h = np.asarray(h, dtype=float)
    if not np.all(h > 0.0):
        raise ValueError(f"mesh size must be positive, got {h}")
    points = np.multiply.outer(h, np.arange(half_width + 1))
    # cosh^2 may overflow to inf for scan points far outside the window; the
    # kinetic term then correctly flushes to zero and the potential part
    # dominates, so the overflow is expected rather than an error; so is an
    # overflow of the sum itself
    with np.errstate(over="ignore"):
        cosh2 = np.cosh(points)
        cosh2 **= 2
        half = -D2_DIAGONAL / ((h * h)[..., np.newaxis] * cosh2)
        half += transformed_potential_scaled(potential, points)
        trace = np.sum(np.concatenate([half[..., :0:-1], half], axis=-1), axis=-1)
    return float(trace) if trace.ndim == 0 else trace


def trace_minimized_mesh_size(potential: EvenPolynomialPotential, half_width: int) -> float:
    """Mesh size minimizing the collocation trace.

    A 64-point log-spaced scan of the first window [1e-3, 5] locates the best
    bracketing triple (ties broken toward smaller h). While that best point is
    an edge of the window, the window doubles its log-width on that side and
    is scanned again. Linear scans across the best triple then narrow it to
    a relative width of 1e-10, and its midpoint is returned. No unimodality
    is assumed beyond what each scan resolves.

    The widening ends because the trace is large at both ends. Toward small
    h, Tr(h) >= pi^2/(3h^2) + (2N+1)(min V - 1/2), which tends to +inf. Toward
    large h, V(sinh kh) overflows to +inf, since Horner's rule starts from
    the positive leading coefficient; an infinite trace never beats a finite
    one, so the window stops growing to the right.
    """
    if half_width < 1:
        raise ValueError(f"truncation half-width must be >= 1, got {half_width}")
    lo, hi = _FIRST_WINDOW
    while True:
        grid = np.exp(np.linspace(math.log(lo), math.log(hi), _SCAN_POINTS))
        best = int(np.argmin(collocation_trace(potential, half_width, grid)))
        if best == 0:
            lo = lo * lo / hi
        elif best == _SCAN_POINTS - 1:
            hi = hi * hi / lo
        else:
            break
    a, b = grid[best - 1], grid[best + 1]
    while b - a > _RESOLUTION * a:
        grid = np.linspace(a, b, _SCAN_POINTS)
        best = int(np.argmin(collocation_trace(potential, half_width, grid)))
        best = min(max(best, 1), _SCAN_POINTS - 2)
        a, b = grid[best - 1], grid[best + 1]
    return 0.5 * (a + b)


def mesh_size_for(
    potential: EvenPolynomialPotential, half_width: int, strategy: MeshStrategy
) -> float:
    """Dispatch the mesh size according to the strategy."""
    if strategy.kind == "optimal":
        return optimal_mesh_size(potential, half_width)
    if strategy.kind == "trace-min":
        return trace_minimized_mesh_size(potential, half_width)
    return float(strategy.fixed_h)
