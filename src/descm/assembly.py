"""Assembly of the collocation matrix as its even and odd parity blocks.

Substituting psi(x) = v(t)/sqrt((d/dx) asinh x) with x = sinh(t), the
double-exponential change of variable, turns -psi'' + V(x) psi = E psi into
the symmetric collocated form

    -v''(t) + W(t) v(t) = E cosh(t)^2 v(t),
    W(t) = 1/4 - (3/4) sech(t)^2 + cosh(t)^2 * V(sinh t).

The solve path needs only the scaled variant W/cosh^2, the diagonal
contribution of the reduced collocation matrix. That matrix, acting on
z = cosh(kh) v(kh), k = -N..N, has entries

    A[j,k] = -delta2(k-j) / (h^2 cosh(jh) cosh(kh))          for j != k,
    A[k,k] = (pi^2/3) / (h^2 cosh(kh)^2) + W(kh)/cosh(kh)^2,

with W the transformed potential. V is even and sinh odd, so
A[j,k] = A[-j,-k], and A splits exactly into an even block E of size N+1,
acting on e_0 and (e_k + e_-k)/sqrt(2), and an odd block O of size N, acting
on (e_k - e_-k)/sqrt(2) (Cantoni and Butler, Linear Algebra Appl. 13, 1976);
the spectrum of A is the union of theirs. delta2 is even in its offset, so
A[j,-k] reads delta2(j+k), and for j, k = 0..N

    E[j,k] = (delta2(k-j) + delta2(j+k)) / (-h^2 cosh(jh) cosh(kh)),
    O[j,k] = (delta2(k-j) - delta2(j+k)) / (-h^2 cosh(jh) cosh(kh)),  j, k >= 1,

with row and column 0 of E scaled by 1/sqrt(2), each plus W(kh)/cosh(kh)^2
on its diagonal. Both numerators are read from zero-copy views of the delta2
table, and both blocks share one denominator and one division; cosh(kh) is
evaluated once per point k = 0..N, and its square is shared with W/cosh^2.
Every step is symmetric in j and k, so both blocks are exactly symmetric.
Neither the (2N+1)x(2N+1) matrix nor the generalized pair (stiffness
matrix, diagonal weight) it was reduced from is ever formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potential import EvenPolynomialPotential
from .sinc_basis import SincWeights

_SQRT_TWO = math.sqrt(2.0)


class CollocationOverflowError(OverflowError):
    """A collocation point produced a non-finite matrix entry, or the trace
    the mesh search minimizes overflowed to -inf."""


def check_half_width(half_width: int) -> None:
    """Reject a truncation below N = 1, the one rule every layer shares."""
    if half_width < 1:
        raise ValueError(f"truncation half-width must be >= 1, got {half_width}")


def check_mesh_size(h):
    """``h`` as a float array, rejected unless every entry lies in (0, inf):
    the one mesh-size rule of the trace, its slope and the assembly. A
    single h is compared as a float, since ufuncs on a 0-d array cost
    microseconds, and the assembly checks one h per solve."""
    h = np.asarray(h, dtype=float)
    if not (0.0 < float(h) < math.inf if h.ndim == 0 else ((h > 0.0) & (h < math.inf)).all()):
        raise ValueError(f"mesh size must be positive and finite, got {h}")
    return h


def transformed_potential_scaled(potential: EvenPolynomialPotential, x, cosh2=None):
    """W(x)/cosh(x)^2 = (1/4) sech^2 - (3/4) sech^4 + V(sinh x).

    The matrix diagonal and the closed-form trace share this expression, so
    the two agree bit for bit. Both evaluate cosh once per point and pass its
    square, shared with their kinetic term, as ``cosh2 == np.cosh(x) ** 2``;
    the call then runs in their error state. V runs Horner's rule in sinh(x)^2
    from its positive leading coefficient, so far out it overflows to +inf
    without ever forming inf - inf or inf * 0; a NaN never appears.
    """
    if cosh2 is None:
        with np.errstate(over="ignore"):
            return transformed_potential_scaled(potential, x, np.cosh(x) ** 2)
    sech2 = 1.0 / cosh2
    value = 0.25 * sech2
    sech4 = 0.75 * sech2
    sech4 *= sech2
    value -= sech4
    value += potential(np.sinh(x))
    return float(value) if np.ndim(value) == 0 else value


@dataclass(frozen=True)
class CollocationMatrix:
    """Parity blocks of the collocation matrix over points kh, k in [-N, N].

    ``entries`` is one read-only (2, N+1, N+1) buffer. Slab 0 is the even
    block over k = 0..N; slab 1 holds the odd block over k = 1..N in its
    rows and columns 1..N, and in row and column 0 values no block reads.
    ``even`` and ``odd`` are views of it.
    """

    half_width: int
    mesh: float
    entries: np.ndarray

    def __post_init__(self):
        self.entries.setflags(write=False)

    @property
    def even(self) -> np.ndarray:
        return self.entries[0]

    @property
    def odd(self) -> np.ndarray:
        return self.entries[1, 1:, 1:]

    def unfold(self, even_vectors: np.ndarray, odd_vectors: np.ndarray) -> np.ndarray:
        """Block eigenvectors as (2N+1)-long columns over k = -N..N: the even
        block's columns first, then the odd block's. Each column is exactly
        even or odd, and orthonormal columns stay orthonormal."""
        n = self.half_width
        half = np.zeros((n + 1, 2 * n + 1))  # rows k = 0..N
        half[0, : n + 1] = even_vectors[0]
        half[1:, : n + 1] = even_vectors[1:] / _SQRT_TWO
        half[1:, n + 1 :] = odd_vectors / _SQRT_TWO
        full = np.concatenate([half[:0:-1], half])
        full[:n, n + 1 :] *= -1.0
        return full


def _collocation_points(half_width: int, h: float) -> np.ndarray:
    """Points kh for k = 0..N; the blocks need no point left of the centre."""
    check_half_width(half_width)
    check_mesh_size(h)
    return np.arange(half_width + 1) * h


def assemble_collocation_matrix(
    potential: EvenPolynomialPotential, half_width: int, h: float
) -> CollocationMatrix:
    """Build both parity blocks directly from their closed-form entries."""
    n = half_width
    points = _collocation_points(n, h)
    toeplitz = SincWeights.second_derivative(n).offset_matrix()
    kinetic = toeplitz[n:, n:]  # delta2(k - j), j, k = 0..N
    mirrored = toeplitz[n::-1, n:]  # delta2(j + k): rows reversed, still a view
    entries = np.empty((2, n + 1, n + 1))
    np.add(kinetic, mirrored, out=entries[0])
    np.subtract(kinetic, mirrored, out=entries[1])
    # an overflow here leaves a non-finite entry, which the check below reports;
    # V(sinh kh) is +inf on the diagonal wherever cosh(kh) overflows
    with np.errstate(over="ignore"):
        c = np.cosh(points)
        # the 1/sqrt(2) of row and column 0 of E, as cosh(0) * sqrt(2) = sqrt(2)
        # in the denominator; row and column 0 of slab 1 are not read
        scaled = c.copy()
        scaled[0] = _SQRT_TWO
        scale = np.multiply.outer(scaled, scaled)
        scale *= -(h * h)
        entries /= scale
        entries.reshape(2, -1)[:, :: n + 2] += transformed_potential_scaled(
            potential, points, c * c)
    if not np.isfinite(entries).all():
        k = n - int(np.argmax(~np.isfinite(np.diagonal(entries[0])[::-1])))  # the outermost
        raise CollocationOverflowError(
            f"non-finite matrix entry at collocation point x = {k * h:.6g} (k = {k}, h = {h:.6g})"
        )
    return CollocationMatrix(half_width=n, mesh=h, entries=entries)
