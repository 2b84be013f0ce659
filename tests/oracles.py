"""Reference implementations that tests compare the package against.

None runs on the solve path: the transformed potential W of the sinh map in
the paper's closed form, the transformed potential of an arbitrary change of
variable by nested finite differences, the unreduced collocation pair whose
conjugation gives the solved matrix, and the earlier trace-minimized mesh
search (a log-spaced scan refined by golden section).
"""

from __future__ import annotations

import math

import numpy as np

from descm.assembly import _collocation_points
from descm.mesh import _SCAN_POINTS, MeshStrategy, TraceMinimumNotFound, collocation_trace
from descm.potential import EvenPolynomialPotential
from descm.sinc_basis import SincWeights

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
    stiffness = -weights.offset_matrix(half_width) / (h * h)
    idx = np.arange(2 * half_width + 1)
    stiffness[idx, idx] += transformed_potential(potential, points)
    diagonal = np.cosh(points) ** 2
    return stiffness, diagonal


def golden_section_mesh_size(
    potential: EvenPolynomialPotential,
    half_width: int,
    strategy: MeshStrategy | None = None,
) -> float:
    """Mesh size minimizing the collocation trace inside the strategy bracket.

    A coarse log-spaced scan locates the best bracketing triple (ties broken
    toward smaller h), then golden-section refinement narrows it to the
    requested relative tolerance. No unimodality is assumed beyond what the
    scan resolves. Raises :class:`TraceMinimumNotFound` when the scan minimum
    sits on a bracket endpoint.
    """
    if half_width < 1:
        raise ValueError(f"truncation half-width must be >= 1, got {half_width}")
    if strategy is None:
        strategy = MeshStrategy.trace_minimized()
    lo, hi = strategy.bracket
    grid = np.exp(np.linspace(math.log(lo), math.log(hi), _SCAN_POINTS))
    values = np.array([collocation_trace(potential, half_width, h) for h in grid])
    best = int(np.argmin(values))
    if best == 0 or best == _SCAN_POINTS - 1:
        raise TraceMinimumNotFound(
            f"no interior trace minimum in bracket [{lo}, {hi}] at N={half_width}; "
            f"scan minimum sits at h={grid[best]:.6g}",
            scan_mesh=grid,
            scan_trace=values,
        )
    a, b = grid[best - 1], grid[best + 1]
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = collocation_trace(potential, half_width, c)
    fd = collocation_trace(potential, half_width, d)
    while b - a > strategy.tolerance * a:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = collocation_trace(potential, half_width, c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = collocation_trace(potential, half_width, d)
    return 0.5 * (a + b)
