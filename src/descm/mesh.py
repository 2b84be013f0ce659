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
The trace does not resolve h much below 1e-8 relative: by then neighbouring
traces differ by a few ulp, so the last passes to the default 1e-10
tolerance choose among rounding noise. They cost two trace calls at most and
keep the search's stopping rule simple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .de_map import transformed_potential_scaled
from .potential import EvenPolynomialPotential
from .sinc_basis import D2_DIAGONAL

_E = math.e

_DEFAULT_BRACKET = (1e-3, 5.0)
_SCAN_POINTS = 64


class TraceMinimumNotFound(RuntimeError):
    """No interior trace minimum inside the search bracket.

    Carries the coarse scan profile so the caller can see whether the bracket
    simply needs widening.
    """

    def __init__(self, message: str, scan_mesh: np.ndarray, scan_trace: np.ndarray):
        super().__init__(message)
        self.scan_mesh = scan_mesh
        self.scan_trace = scan_trace


@dataclass(frozen=True)
class MeshStrategy:
    """How the mesh size is chosen when solving at a given truncation.

    ``kind`` is one of ``"optimal"`` (closed form), ``"trace-min"``
    (trace minimization over ``bracket``, refined to relative ``tolerance``
    on h) or ``"fixed"`` (use ``fixed_h`` as given).
    """

    kind: str = "optimal"
    fixed_h: float | None = None
    bracket: tuple[float, float] = _DEFAULT_BRACKET
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.kind not in ("optimal", "trace-min", "fixed"):
            raise ValueError(f"unknown mesh strategy {self.kind!r}")
        lo, hi = self.bracket
        if not (0.0 < lo < hi < math.inf):
            raise ValueError(f"bracket must satisfy 0 < low < high < inf, got {self.bracket}")
        if not (0.0 < self.tolerance < math.inf):
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")
        if self.kind == "fixed":
            if self.fixed_h is None or self.fixed_h <= 0.0:
                raise ValueError("fixed strategy needs a positive mesh size")
        elif self.fixed_h is not None:
            raise ValueError("fixed_h only makes sense with the fixed strategy")

    @classmethod
    def optimal(cls) -> "MeshStrategy":
        return cls(kind="optimal")

    @classmethod
    def trace_minimized(cls, bracket=_DEFAULT_BRACKET, tolerance=1e-10) -> "MeshStrategy":
        return cls(kind="trace-min", bracket=tuple(bracket), tolerance=tolerance)

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


def optimal_mesh_size(potential: EvenPolynomialPotential, half_width: int) -> float:
    """Closed-form mesh size W(2^m pi^2 (m+1) N / sqrt(c_m)) / ((m+1) N).

    Only the leading coefficient and the half-degree enter; inner
    coefficients and the constant do not affect the decay rate.
    """
    if half_width < 1:
        raise ValueError(f"truncation half-width must be >= 1, got {half_width}")
    m = potential.degree_parameter
    arg = 2.0**m * math.pi**2 * (m + 1) * half_width / math.sqrt(potential.leading_coefficient)
    return lambert_w0(arg) / ((m + 1) * half_width)


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


def trace_minimized_mesh_size(
    potential: EvenPolynomialPotential,
    half_width: int,
    strategy: MeshStrategy | None = None,
) -> float:
    """Mesh size minimizing the collocation trace inside the strategy bracket.

    A log-spaced scan locates the best bracketing triple (ties broken toward
    smaller h); linear scans across the best triple narrow it to the requested
    relative tolerance, or until it stops shrinking, and its midpoint is
    returned. No unimodality is assumed beyond what each scan resolves.
    Raises :class:`TraceMinimumNotFound` when the first scan's minimum sits
    on a bracket endpoint.
    """
    if half_width < 1:
        raise ValueError(f"truncation half-width must be >= 1, got {half_width}")
    if strategy is None:
        strategy = MeshStrategy.trace_minimized()
    lo, hi = strategy.bracket
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), _SCAN_POINTS))
    values = collocation_trace(potential, half_width, grid)
    best = int(np.argmin(values))
    if best == 0 or best == _SCAN_POINTS - 1:
        raise TraceMinimumNotFound(
            f"no interior trace minimum in bracket [{lo}, {hi}] at N={half_width}; "
            f"scan minimum sits at h={grid[best]:.6g}",
            scan_mesh=grid,
            scan_trace=values,
        )
    a, b = grid[best - 1], grid[best + 1]
    width = math.inf  # a triple a few ulp wide stops shrinking, whatever the tolerance
    while width > b - a > strategy.tolerance * a:
        width = b - a
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
        return trace_minimized_mesh_size(potential, half_width, strategy)
    return float(strategy.fixed_h)
