"""Reference implementations that tests compare the package against.

None runs on the solve path: the transformed potential W of the sinh map in
the paper's closed form, the transformed potential of an arbitrary change of
variable by nested finite differences, the second-derivative weights built
per truncation with their Toeplitz matrix gathered through an index array,
the shifted Sinc basis S(j,h) and a five-point finite-difference second
derivative to check those weights by (with the package's weights keyed by
offset), the eigenvalues of a small symmetric matrix by determinant sign
changes and bisection, the full (2N+1)x(2N+1) collocation matrix that the
parity blocks split, those blocks folded from full-grid data by index, the
unreduced collocation pair whose conjugation gives the full matrix, the
earlier trace-minimized mesh search (a log-spaced scan refined by golden
section), the collocation trace summed over the full grid k = -N..N, and the
potential (Horner's rule for a polynomial well, the composition of Chebyshev
stages for a Chebyshev well) and W/cosh^2 written as plain expressions that
allocate a new array at every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from descm.assembly import (CollocationOverflowError, check_half_width,
                            transformed_potential_scaled)
from descm.mesh import _FIRST_WINDOW, _RESOLUTION, _SCAN_POINTS, collocation_trace
from descm.potential import ChebyshevWell, EvenPolynomialPotential
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


def gathered_d2_weights(half_width: int) -> tuple[np.ndarray, np.ndarray]:
    """delta2 at offsets -2N..2N, built for this N alone, and the dense
    (2N+1)x(2N+1) matrix of its values at offsets k - j, gathered by index."""
    off = np.arange(-2 * half_width, 2 * half_width + 1)
    values = np.empty(off.shape)
    nz = off != 0
    values[nz] = -2.0 * (-1.0) ** off[nz] / (off[nz] * off[nz])
    values[2 * half_width] = D2_DIAGONAL
    idx = np.arange(2 * half_width + 1)
    return values, values[idx[None, :] - idx[:, None] + 2 * half_width]


def sinc_basis(j, h, x):
    """Shifted basis function S(j,h)(x) = sinc((x - jh)/h)."""
    return np.sinc((x - j * h) / h)


def d2_weights(half_width):
    """Scaled second-derivative weights keyed by offset r in [-2N, 2N]."""
    values = SincWeights.second_derivative(half_width).values
    return dict(zip(range(-2 * half_width, 2 * half_width + 1), values.tolist()))


def fd_second_derivative(f, x, step):
    """Five-point central second derivative, O(step^4)."""
    return (
        -f(x + 2 * step) + 16 * f(x + step) - 30 * f(x) + 16 * f(x - step) - f(x - 2 * step)
    ) / (12 * step * step)


def characteristic_roots_by_bisection(a, tol=1e-12):
    """All eigenvalues of a small symmetric matrix from sign changes of
    det(a - t I) on a dense grid, refined by bisection. LU-based determinants
    only; fully independent of the symmetric solver under test."""
    radius = np.max(np.sum(np.abs(a), axis=1))  # Gershgorin bound
    grid = np.linspace(-radius - 1.0, radius + 1.0, 20001)
    dets = np.array([np.linalg.det(a - t * np.eye(a.shape[0])) for t in grid])
    roots = []
    for i in range(len(grid) - 1):
        if dets[i] == 0.0:
            roots.append(grid[i])
            continue
        if (dets[i] < 0) != (dets[i + 1] < 0):
            lo, hi = grid[i], grid[i + 1]
            flo = dets[i]
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                fmid = np.linalg.det(a - mid * np.eye(a.shape[0]))
                if (fmid < 0) == (flo < 0):
                    lo, flo = mid, fmid
                else:
                    hi = mid
            roots.append(0.5 * (lo + hi))
    return np.array(roots)


def _full_grid(half_width: int, h: float) -> np.ndarray:
    check_half_width(half_width)
    if not (0.0 < h < np.inf):
        raise ValueError(f"mesh size must be positive and finite, got {h}")
    return np.arange(-half_width, half_width + 1) * h


@dataclass(frozen=True)
class FullCollocationMatrix:
    """Dense symmetric collocation matrix over points kh, k in [-N, N]."""

    half_width: int
    mesh: float
    entries: np.ndarray

    def __post_init__(self):
        self.entries.setflags(write=False)

    def trace(self) -> float:
        return float(np.trace(self.entries))


def full_collocation_matrix(
    potential: EvenPolynomialPotential, half_width: int, h: float
) -> FullCollocationMatrix:
    """The (2N+1)x(2N+1) matrix A[j,k] = -delta2(k-j)/(h^2 cosh(jh) cosh(kh))
    plus W(kh)/cosh(kh)^2 on the diagonal, over the whole grid, with the
    weights gathered by index."""
    points = _full_grid(half_width, h)
    _, weights = gathered_d2_weights(half_width)
    with np.errstate(over="ignore"):
        c = np.cosh(points)
        entries = weights / (-(h * h) * np.multiply.outer(c, c))
        entries.flat[:: len(points) + 1] += transformed_potential_scaled(potential, points, c * c)
    if not np.isfinite(entries).all():
        raise CollocationOverflowError(f"non-finite matrix entry (N = {half_width}, h = {h})")
    return FullCollocationMatrix(half_width=half_width, mesh=h, entries=entries)


def parity_blocks_by_index(
    potential: EvenPolynomialPotential, half_width: int, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd blocks folded from full-grid data: numerators
    K[j,k] +- K[j,-k] of the gathered (2N+1)x(2N+1) weight matrix, read by
    index, over the full grid's scale -h^2 cosh(jh) cosh(kh) with sqrt(2)
    joining cosh(0) in row and column 0 of the even block, in the package's
    order of operations, so the assembled blocks must equal them bit for bit."""
    n = half_width
    points = _full_grid(n, h)
    _, weights = gathered_d2_weights(n)
    right = np.arange(n, 2 * n + 1)  # index of point k = 0..N
    left = right[::-1] - n  # index of point -k
    kinetic = weights[np.ix_(right, right)]
    mirrored = weights[np.ix_(right, left)]
    with np.errstate(over="ignore"):
        c = np.cosh(points)
        # the basis vector (e_k + e_-k)/sqrt(2) becomes e_0 at k = 0
        denominator = c[right]
        denominator[0] *= math.sqrt(2.0)
        scale = np.multiply.outer(denominator, denominator) * -(h * h)
        even = (kinetic + mirrored) / scale
        odd = (kinetic - mirrored)[1:, 1:] / scale[1:, 1:]
        diagonal = transformed_potential_scaled(potential, points, c * c)[right]
    idx = np.arange(n + 1)
    even[idx, idx] += diagonal
    odd[idx[:-1], idx[:-1]] += diagonal[1:]
    return even, odd


def assemble_generalized_pair(
    potential: EvenPolynomialPotential, half_width: int, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """The unreduced pair: symmetric stiffness matrix and diagonal weights.

    Returns (H, d) where H[j,k] = -delta2(k-j)/h^2 + W(kh) delta0(k-j) and
    d[k] = cosh(kh)^2 > 0 is the diagonal of the weight matrix. Conjugating
    H by d^(-1/2) reproduces the full reduced matrix; kept as an oracle for
    that identity, not used on the solve path.
    """
    points = _full_grid(half_width, h)
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


def chebyshev_composition(potential: ChebyshevWell, x):
    """T_n(x) + shift as T_p(...T_p'(x)) over the prime factors of n, smallest
    first; each T_p by Horner's rule in y^2 on numpy's ``cheb2poly``
    coefficients (times y for odd p), a new array per step."""
    y = x
    degree = 2 * potential.degree_parameter
    p = 2
    while degree > 1:
        while degree % p == 0:
            degree //= p
            t = np.polynomial.chebyshev.cheb2poly([0] * p + [1])
            odd = p % 2
            y2 = y * y
            acc = 0.0
            for c in reversed(t[odd + 2 :: 2]):
                acc = (acc + c) * y2
            acc = acc + t[odd]
            y = acc * y if odd else acc
        p += 1
    return y + potential.shift


def plain_potential(potential: EvenPolynomialPotential, x):
    """V(x) by the expression the package's evaluator of this well follows."""
    if isinstance(potential, ChebyshevWell):
        return chebyshev_composition(potential, x)
    return horner_potential(potential, x)


def transformed_potential_scaled_expression(potential: EvenPolynomialPotential, x):
    """W(x)/cosh(x)^2 = (1/4) sech^2 - (3/4) sech^4 + V(sinh x), one expression."""
    with np.errstate(over="ignore"):
        sech2 = 1.0 / np.cosh(x) ** 2
        value = 0.25 * sech2 - 0.75 * sech2 * sech2 + plain_potential(potential, np.sinh(x))
    return float(value) if np.ndim(value) == 0 else value
