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
earlier trace-minimized mesh searches (a log-spaced scan refined by golden
section, and the slope search that refined every bracketing cell of a pass
in lockstep as the rows of one 2-D grid), the collocation trace summed over the full grid k = -N..N, and the
potential (Horner's rule for a polynomial well, the composition of Chebyshev
stages for a Chebyshev well) and W/cosh^2 written as plain expressions that
allocate a new array at every step, the eigenvalues of one parity block
built and solved at 40 digits, true-value references of the two Chebyshev
headline wells that the 40-digit blocks and a large-N solve produced, and a
convergence sweep that solves both blocks at every truncation and picks its
level out of the merged spectrum. Earlier forms of package steps serve as
oracles of the faster ones: the assembly that divided a fresh slab per
block and tested every entry for finiteness, the JSON writer that recursed
once per value, the records it wrote for CSV rows, one dict per row, the
search's rises read by array operations and its cubic zero summed by a
loop, and the Chebyshev chain rule started from 1.0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from descm.assembly import (_SQRT_TWO, CollocationOverflowError, _parity_numerators,
                            check_half_width, check_mesh_size, parity_blocks,
                            transformed_potential_scaled)
from descm.mesh import (_BRACKET, _FIRST_GRID, _FIRST_WINDOW, _SCAN_POINTS, _slope_terms,
                        collocation_trace)
from descm.potential import ChebyshevWell, EvenPolynomialPotential, _horner_in_square
from descm.sinc_basis import D2_DIAGONAL, SincWeights
from descm.solver import ConvergenceRecord, DescmProblem, solve

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_RESOLUTION = 1e-10  # relative bracket width at which golden section stops


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


@np.errstate(over="ignore", invalid="ignore")
def collocation_trace_slope(potential: EvenPolynomialPotential, half_width: int,
                            h: float | np.ndarray) -> float | np.ndarray:
    """dTr/dh in closed form, 2 D2 / h^3 + 2 sum_(k=1..N) t_k over the terms
    of ``descm.mesh._slope_terms`` (which derives them), summed as the
    search's slope passes sum them; ``h`` may be an array, as for
    ``collocation_trace``. Far out the slope is +inf, and -inf where 1/h^2
    overflows, without a warning; mixed infinities give NaN.
    """
    check_half_width(half_width)
    terms, kinetic = _slope_terms(potential, check_mesh_size(h), np.arange(1.0, half_width + 1))
    slope = np.add.reduce(terms, -1)
    slope *= 2.0
    slope += kinetic
    return float(slope) if slope.ndim == 0 else slope


def _lockstep_best_trace(grid: np.ndarray, traces: np.ndarray) -> int:
    """Index of the smallest trace, a NaN ranked as +inf; a best trace of -inf raises."""
    best = int(traces.argmin())
    if not math.isfinite(traces[best]):
        if math.isnan(traces[best]):  # argmin returns the first NaN, if any
            best = int(np.where(np.isnan(traces), np.inf, traces).argmin())
        if traces[best] == -math.inf:
            raise CollocationOverflowError(
                f"collocation trace overflows to -inf at h = {grid[best]:.6g}"
            )
    return best


def _lockstep_interpolated_zero(grid: np.ndarray, slope: np.ndarray, i: int) -> float:
    """Zero of the slope between grid[i] and grid[i + 1] by inverse cubic
    interpolation through the four nearest points, or by the secant through
    the bracket's ends where those slopes do not rise strictly or the cubic
    leaves the bracket; on numpy scalars."""
    a, b, sa, sb = grid[i], grid[i + 1], slope[i], slope[i + 1]
    secant = float(a - sa * ((b - a) / (sb - sa)))
    j = min(max(i - 1, 0), len(grid) - 4)
    xs, ss = grid[j : j + 4].tolist(), slope[j : j + 4].tolist()
    if not all(s < t for s, t in zip(ss, ss[1:])):
        return secant
    zero = 0.0
    for k, (x, s) in enumerate(zip(xs, ss)):
        for m, t in enumerate(ss):
            if m != k:
                x *= t / (t - s)
        zero += x
    return zero if a <= zero <= b else secant


def array_rises(slope: np.ndarray) -> list[int]:
    """Flat indices j where a pass's slope rises through 0 from point j to
    point j + 1 of one 64-point cell, slope[j] < 0 <= slope[j + 1], a rise
    from -inf left out; by array operations, as the search read a full
    pass's rises before one rule on a list of floats read every pass's."""
    flat = slope.reshape(-1)
    nonnegative = flat >= 0.0
    steps = (nonnegative[1:] > nonnegative[:-1]).nonzero()[0].tolist()
    return [j for j in steps
            if j % _SCAN_POINTS != _SCAN_POINTS - 1 and -math.inf < flat.item(j) < 0.0]


def loop_interpolated_zero(grid: np.ndarray, slope: np.ndarray, i: int) -> float:
    """Zero of the slope between grid[i] and grid[i + 1] by inverse cubic
    interpolation through the four nearest points, or the secant zero through
    the bracket's ends where those slopes do not rise strictly or the cubic
    leaves the bracket; on arrays, with the Lagrange sum formed by a loop over
    the points, in the search's earlier form."""
    j = min(max(i - 1, 0), len(grid) - 4)
    xs, ss = grid[j : j + 4].tolist(), slope[j : j + 4].tolist()
    a, b, sa, sb = xs[i - j], xs[i - j + 1], ss[i - j], ss[i - j + 1]
    secant = a - sa * ((b - a) / (sb - sa))
    if not all(s < t for s, t in zip(ss, ss[1:])):
        return secant
    zero = 0.0
    for k, (x, s) in enumerate(zip(xs, ss)):
        for m, t in enumerate(ss):
            if m != k:
                x *= t / (t - s)
        zero += x
    return zero if a <= zero <= b else secant


def lockstep_trace_minimized_mesh_size(potential: EvenPolynomialPotential,
                                       half_width: int) -> float:
    """The trace-minimized mesh size by the search that refined (rows x 64)
    grids in lockstep, one bracketing cell per row.

    The first scan and its widening are the package's. Every pass evaluates
    the slope afresh through :func:`collocation_trace_slope` over
    ``np.linspace`` grids; each cell where the slope rises through 0 from a
    finite value becomes a row of the next pass, until every such cell is
    ``_BRACKET`` relative wide or a pass shows no rise. A single interpolated
    zero is the mesh size; one trace call picks the lowest of several zeros,
    or of that pass's points if it showed none.
    """
    lo, hi = _FIRST_WINDOW
    grid = _FIRST_GRID
    while True:
        best = _lockstep_best_trace(grid, collocation_trace(potential, half_width, grid))
        if best == 0:
            lo = lo * lo / hi
        elif best == _SCAN_POINTS - 1:
            hi = hi * hi / lo
        else:
            break
        grid = np.exp(np.linspace(math.log(lo), math.log(hi), _SCAN_POINTS))
    grid = np.linspace(grid[best - 1 : best], grid[best + 1 : best + 2], _SCAN_POINTS, axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            slope = collocation_trace_slope(potential, half_width, grid)
            # a rise from -inf (V' below the double range) places no zero
            left = slope[:, :-1]
            row, i = np.nonzero((-math.inf < left) & (left < 0.0) & (slope[:, 1:] >= 0.0))
            if len(i) == 0:
                break
            a, b = grid[row, i], grid[row, i + 1]
            if (b - a <= _BRACKET * a).all():
                break
            grid = np.linspace(a, b, _SCAN_POINTS, axis=-1)
    if len(i) == 0:
        candidates = grid.ravel()
    else:
        candidates = np.array([_lockstep_interpolated_zero(grid[r], slope[r], k)
                               for r, k in zip(row, i)])
        if len(candidates) == 1:
            return float(candidates[0])
    traces = collocation_trace(potential, half_width, candidates)
    return float(candidates[_lockstep_best_trace(candidates, traces)])


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


def chebyshev_derivative_from_one(potential: ChebyshevWell, x):
    """T_n'(x) by the chain rule over the package's stages, the product
    started from 1.0, in the form the package had before it started from the
    first stage's slope."""
    *inner, (_, last_slope) = potential._stages
    chain = 1.0
    y = x
    for stage, slope in inner:
        chain *= _horner_in_square(*slope, y)
        y = _horner_in_square(*stage, y)
    chain *= _horner_in_square(*last_slope, y)
    return chain


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


def mp_block_eigenvalues(potential: EvenPolynomialPotential, half_width: int, h: float,
                         parity: int, dps: int = 40) -> list[float]:
    """Ascending eigenvalues of the even (``parity`` +1) or odd (-1) block at
    ``dps`` digits, from the closed-form entries in ``descm.assembly``:

        (delta2(k-j) + parity delta2(j+k)) / (-h^2 s_j s_k),  s_k = cosh(kh),

    with s_0 = sqrt(2) for row and column 0 of the even block, plus
    W(kh)/cosh(kh)^2 on the diagonal, over k = 0..N (even) or 1..N (odd).
    V is the well's polynomial in mpmath, ``mpmath.chebyt`` for a Chebyshev
    well, and ``mpmath.eigsy`` solves the block.
    """
    with mpmath.workdps(dps):
        h = mpmath.mpf(h)

        def delta2(r):
            return -mpmath.pi**2 / 3 if r == 0 else mpmath.mpf(-2 * (-1) ** r) / (r * r)

        def v(x):
            if isinstance(potential, ChebyshevWell):
                return mpmath.chebyt(2 * potential.degree_parameter, x) + potential.shift
            return potential.constant + sum(
                c * x ** (2 * i) for i, c in enumerate(map(mpmath.mpf, potential.coefficients), 1))

        ks = range(0 if parity > 0 else 1, half_width + 1)
        s = [mpmath.sqrt(2) if k == 0 else mpmath.cosh(k * h) for k in ks]
        block = mpmath.matrix(len(ks))
        for a, j in enumerate(ks):
            for b, k in enumerate(ks):
                block[a, b] = (delta2(k - j) + parity * delta2(j + k)) / (-h * h * s[a] * s[b])
            sech2 = 1 / mpmath.cosh(j * h) ** 2
            block[a, a] += sech2 / 4 - 3 * sech2**2 / 4 + v(mpmath.sinh(j * h))
        return [float(e) for e in mpmath.eigsy(block, eigvals_only=True)]


# True-value references too slow for tier-1, pinned as data beside the call
# that produced each; every one is under the trace-minimized mesh.
#
# The DESCM limit of E_0 of the ten-well cheb:20;shift=-1 (criterion 9). With
# p = chebyshev_well(20, -1.0) and h = trace_minimized_mesh_size(p, N),
#     mp_block_eigenvalues(p, N, h, 1)[0]
# is 1.1193290968994232 at N = 120 (about 10 s) and 1.119329096899423 at
# N = 160 (about 22 s): one ulp apart, so both lie at the limit.
TEN_WELL_E0_LIMIT = 1.1193290968994232
# E_0 of cheb:40;shift=-1 at N = 300, where the sweep's successive differences
# are far below its stop's error: with p = chebyshev_well(40, -1.0),
#     solve(DescmProblem(p, MeshStrategy.trace_minimized()), 300, parity=1).spectrum[0]
# It holds to about 3e-11, not to an ulp: the N = 300 solve moves by up to
# 3e-11 with the last bits of the trace-min h.
CHEB40_E0_AT_300 = 1.3171164236507766


def two_block_converge(problem: DescmProblem, level: int = 0, tolerance: float = 5e-12,
                       n_max: int = 100, n_start: int = 2,
                       n_step: int = 1) -> list[ConvergenceRecord]:
    """The records of ``descm.converge``'s sweep, with both blocks solved at
    every N by a plain ``solve``, one truncation at a time, and level n read
    from the merged spectrum as the n // 2-th level labelled with parity
    (-1)^n."""
    records: list[ConvergenceRecord] = []
    previous = None
    for n in range(max(n_start, math.ceil(level / 2)), n_max + 1, n_step):
        result = solve(problem, n)
        energy = float(result.spectrum[result.parity == (-1) ** level][level // 2])
        delta = None if previous is None else abs(previous - energy)
        records.append(ConvergenceRecord(half_width=n, h=result.h_used, energy=energy,
                                         delta=delta))
        previous = energy
        if delta is not None and delta < tolerance:
            break
    return records


def full_slab_collocation_matrix(potential: EvenPolynomialPotential, half_width: int, h: float,
                                 parity: int | None = None) -> np.ndarray:
    """The parity slabs as ``assemble_collocation_matrix`` built them when it
    divided the numerators into a fresh (len(parities), N+1, N+1) array and
    tested every entry, off the diagonal too, for finiteness. Returns that
    array, or raises CollocationOverflowError with the package's message,
    naming the outermost non-finite diagonal entry of the first slab."""
    n = half_width
    parities = parity_blocks(parity)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        check_half_width(n)
        check_mesh_size(h)
        points = np.arange(n + 1) * h
        first = 0 if parities[0] > 0 else 1
        numerators = _parity_numerators(n)[first : first + len(parities), : n + 1, : n + 1]
        c = np.cosh(points)
        scaled = c.copy()
        scaled[0] = _SQRT_TWO
        scale = np.multiply.outer(scaled, scaled)
        scale *= -(h * h)
        entries = np.divide(numerators, scale)
        entries.reshape(len(parities), -1)[:, :: n + 2] += transformed_potential_scaled(
            potential, points, c * c)
    if not np.isfinite(entries).all():
        k = n - int(np.argmax(~np.isfinite(np.diagonal(entries[0])[::-1])))  # the outermost
        raise CollocationOverflowError(
            f"non-finite matrix entry at collocation point t = kh = {k * h:.6g} "
            f"(k = {k}, h = {h:.6g})"
        )
    return entries


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


_json_text = json.JSONEncoder(ensure_ascii=False).encode


def recursive_json(value, pad: str = "") -> str:
    """JSON text of a payload value: floats at 17 significant digits, a dict or
    list one member per line, two spaces past ``pad`` (its closing bracket's
    indent), and strings escaped by ``json``. Floats, nearly every value, come first."""
    if isinstance(value, float):
        return _fmt(value) if math.isfinite(value) else "null"  # JSON has no inf/nan
    if type(value) is int:  # not bool
        return str(value)
    if isinstance(value, (dict, list)):
        inner = pad + "  "
        if isinstance(value, dict):
            brackets, members = "{}", [f'{inner}"{k}": {recursive_json(v, inner)}'
                                       for k, v in value.items()]
        else:
            brackets, members = "[]", [f"{inner}{recursive_json(v, inner)}" for v in value]
        return f"{brackets[0]}\n" + ",\n".join(members) + f"\n{pad}{brackets[1]}"
    return _json_text(value)


def records(header: str, rows) -> list[dict]:
    """JSON records of CSV rows, keyed by the header's column names."""
    columns = header.split(",")
    return [dict(zip(columns, row)) for row in rows]
