"""Reference implementations that tests compare the package against.

None runs on the solve path: the transformed potential W of the sinh map in
the paper's closed form, the transformed potential of an arbitrary change of
variable by nested finite differences, the unreduced collocation pair whose
conjugation gives the solved matrix, the earlier trace-minimized mesh search
(a log-spaced scan refined by golden section), the collocation trace summed
over the full grid k = -N..N, and the potential and W/cosh^2 written as plain
expressions that allocate a new array at every step.
"""

from __future__ import annotations

import math

import numpy as np

from descm.assembly import _collocation_points
from descm.de_map import transformed_potential_scaled
from descm.mesh import _FIRST_WINDOW, _RESOLUTION, _SCAN_POINTS, collocation_trace
from descm.potential import EvenPolynomialPotential
from descm.sinc_basis import D2_DIAGONAL, SincWeights

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def transformed_potential(potential: EvenPolynomialPotential, t):
    """W(t) = 1/4 - (3/4) sech(t)^2 + cosh(t)^2 * V(sinh t), the unscaled form.

    The constant term of the potential sits inside V and is thus amplified by
    cosh^2, exactly as the change of variable dictates.
    """
    with np.errstate(over="ignore"):
        sech2 = 1.0 / np.cosh(t) ** 2
        return 0.25 - 0.75 * sech2 + np.cosh(t) ** 2 * potential(np.sinh(t))


def transformed_potential_general(potential, map_fn, x, map_derivative_fn=None):
    """Finite-difference evaluation of the general change-of-variable potential

        -sqrt(f) d/dx [ (1/f) d/dx sqrt(f) ] + f^2 V(map(x)),   f = map'(x)

    for an arbitrary map. The derivative term is built from nested central
    differences; pass ``map_derivative_fn`` to keep the algebraic f^2 V term
    exact (omitting it differentiates the map numerically as well). Exists to
    validate the closed-form sinh specialization.
    """
    x = float(x)
    scale = 1.0 + abs(x)
    if map_derivative_fn is None:
        # Differentiating the map numerically injects noise that the nested
        # differences below amplify, so the whole ladder widens.
        d0, inner_step, outer_step = 1e-3 * scale, 1e-4 * scale, 1e-3 * scale

        def fprime(t):
            return (map_fn(t + d0) - map_fn(t - d0)) / (2.0 * d0)
    else:
        inner_step, outer_step = 1e-5 * scale, 1e-4 * scale
        fprime = map_derivative_fn
    if x + outer_step == x or x + inner_step == x:
        raise FloatingPointError(f"finite-difference step underflow at x = {x}")

    def sqrt_f(t):
        return math.sqrt(fprime(t))

    def ratio(t):
        # (1/f) d/dx sqrt(f), inner central difference
        return (sqrt_f(t + inner_step) - sqrt_f(t - inner_step)) / (2.0 * inner_step * fprime(t))

    try:
        derivative_term = (
            -sqrt_f(x) * (ratio(x + outer_step) - ratio(x - outer_step)) / (2.0 * outer_step)
        )
    except OverflowError as exc:
        raise FloatingPointError(f"finite-difference stencil overflowed at x = {x}") from exc
    if not math.isfinite(derivative_term):
        raise FloatingPointError(f"finite-difference stencil lost precision at x = {x}")
    return derivative_term + fprime(x) ** 2 * potential(map_fn(x))


def assemble_generalized_pair(
    potential: EvenPolynomialPotential, half_width: int, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """The unreduced pair: symmetric stiffness matrix and diagonal weights.

    Returns (H, d) where H[j,k] = -delta2(k-j)/h^2 + W(kh) delta0(k-j) and
    d[k] = cosh(kh)^2 > 0 is the diagonal of the weight matrix. Conjugating
    H by d^(-1/2) reproduces the reduced matrix; kept as an oracle for that
    identity, not used on the solve path.
    """
    points = _collocation_points(half_width, h)
    weights = SincWeights.second_derivative(half_width)
    stiffness = -weights.offset_matrix() / (h * h)
    idx = np.arange(2 * half_width + 1)
    stiffness[idx, idx] += transformed_potential(potential, points)
    diagonal = np.cosh(points) ** 2
    return stiffness, diagonal


def golden_section_mesh_size(potential: EvenPolynomialPotential, half_width: int) -> float:
    """Mesh size minimizing the collocation trace inside the first scan window.

    A coarse log-spaced scan locates the best bracketing triple (ties broken
    toward smaller h), then golden-section refinement narrows it to the
    search's relative resolution. No unimodality is assumed beyond what the
    scan resolves. Raises :class:`RuntimeError` when the scan minimum sits on
    a window edge.
    """
    if half_width < 1:
        raise ValueError(f"truncation half-width must be >= 1, got {half_width}")
    lo, hi = _FIRST_WINDOW
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), _SCAN_POINTS))
    values = np.array([collocation_trace(potential, half_width, h) for h in grid])
    best = int(np.argmin(values))
    if best == 0 or best == _SCAN_POINTS - 1:
        raise RuntimeError(f"no interior trace minimum in [{lo}, {hi}] at N={half_width}")
    a, b = grid[best - 1], grid[best + 1]
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = collocation_trace(potential, half_width, c)
    fd = collocation_trace(potential, half_width, d)
    while b - a > _RESOLUTION * a:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = collocation_trace(potential, half_width, c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = collocation_trace(potential, half_width, d)
    return 0.5 * (a + b)


def full_grid_collocation_trace(potential: EvenPolynomialPotential, half_width: int,
                                h: float | np.ndarray) -> float | np.ndarray:
    """Trace of the reduced collocation matrix, without assembling it.

    ``h`` may be an array of mesh sizes, each trace bit for bit the scalar
    call's. Matches the assembled-matrix trace bit for bit up to summation
    order: both paths evaluate the identical per-point diagonal expression.
    """
    if half_width < 0:
        raise ValueError(f"truncation half-width must be >= 0, got {half_width}")
    h = np.asarray(h, dtype=float)
    if not np.all(h > 0.0):
        raise ValueError(f"mesh size must be positive, got {h}")
    points = np.multiply.outer(h, np.arange(-half_width, half_width + 1))
    # cosh^2 may overflow to inf for scan points far outside the window; the
    # kinetic term then correctly flushes to zero and the potential part
    # dominates, so the overflow is expected rather than an error
    with np.errstate(over="ignore"):
        cosh2 = np.cosh(points) ** 2
        kinetic = -D2_DIAGONAL / ((h * h)[..., np.newaxis] * cosh2)
        trace = np.sum(kinetic + transformed_potential_scaled(potential, points), axis=-1)
    return float(trace) if trace.ndim == 0 else trace


def horner_potential(potential: EvenPolynomialPotential, x):
    """c0 + sum_i c_i x^(2i) by Horner's rule in x^2, a new array per step."""
    x2 = x * x
    acc = 0.0
    for c in reversed(potential.coefficients):
        acc = (acc + c) * x2
    return acc + potential.constant


def transformed_potential_scaled_expression(potential: EvenPolynomialPotential, x):
    """W(x)/cosh(x)^2 = (1/4) sech^2 - (3/4) sech^4 + V(sinh x), one expression."""
    with np.errstate(over="ignore"):
        sech2 = 1.0 / np.cosh(x) ** 2
        value = 0.25 * sech2 - 0.75 * sech2 * sech2 + horner_potential(potential, np.sinh(x))
    return float(value) if np.ndim(value) == 0 else value
