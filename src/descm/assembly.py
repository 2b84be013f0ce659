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
on its diagonal. Both numerators depend on neither h nor N, so one
read-only table per process holds them, the only cache of the weights: it
grows to at least twice its width when a larger N arrives, and only then
are delta2 built from the closed form and summed and differenced from two
views of their Toeplitz matrix. Each block divides its corner of that table
by one shared denominator, the same two roundings as a fresh sum and
division. cosh(kh) is evaluated once per point k = 0..N, and its
square is shared with W/cosh^2. A caller that needs one parity only, such as
a sweep following one level, asks for that block alone: its corner is then
divided into the denominator's own buffer, the one slab built. Only the
diagonals are tested for overflow; an off-diagonal entry is non-finite only
where a diagonal one is.
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


def parity_blocks(parity) -> tuple[int, ...]:
    """The parities of the blocks to build: (1, -1) for None, both blocks,
    else the one block of parity +1 (even) or -1 (odd); any other value is
    rejected."""
    if parity is None:
        return (1, -1)
    if isinstance(parity, (int, np.integer)) and not isinstance(parity, bool) and parity in (1, -1):
        return (int(parity),)
    raise ValueError(f"parity must be None, +1 or -1, got {parity!r}")


def check_mesh_size(h):
    """``h`` as a float array, rejected unless every entry lies in (0, inf):
    the one mesh-size rule of the trace, its slope and the assembly. A
    single h is compared as a float, since ufuncs on a 0-d array cost
    microseconds; the assembly, one h per solve, compares a float h itself
    and passes any other h, or one that fails, here."""
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

    ``entries`` is one read-only (len(parities), N+1, N+1) array, one slab
    per built block in the order of ``parities`` (for one block, a view of
    its slab with a leading axis of 1). The even block's slab
    (parity +1) holds it over k = 0..N; the odd block's slab (parity -1)
    holds it over k = 1..N in its rows and columns 1..N, and in row and
    column 0 values no block reads. ``block(parity)``, ``even`` and ``odd``
    are views of it.
    """

    half_width: int
    mesh: float
    entries: np.ndarray
    parities: tuple[int, ...]

    def __post_init__(self):
        self.entries.setflags(write=False)

    def block(self, parity: int) -> np.ndarray:
        """The block of parity +1 or -1, a view; ValueError if it was not built."""
        slab = self.entries[self.parities.index(parity)]
        return slab if parity > 0 else slab[1:, 1:]

    @property
    def even(self) -> np.ndarray:
        return self.block(1)

    @property
    def odd(self) -> np.ndarray:
        return self.block(-1)

    def unfold(self, vectors: np.ndarray, parity: int) -> np.ndarray:
        """Eigenvectors of the block of ``parity`` as (2N+1)-long columns over
        k = -N..N. Each column is exactly even or odd, and orthonormal
        columns stay orthonormal."""
        n = self.half_width
        half = np.zeros((n + 1, vectors.shape[1]))  # rows k = 0..N
        if parity > 0:
            half[0] = vectors[0]
            vectors = vectors[1:]
        half[1:] = vectors / _SQRT_TWO
        return np.concatenate([parity * half[:0:-1], half])


# delta2(k - j) + delta2(j + k) (slab 0, the even block's numerators) and
# delta2(k - j) - delta2(j + k) (slab 1, the odd block's) for j, k = 0..M:
# they depend on neither h nor N, so one read-only table serves every N <= M
# and each block divides its corner. It is regrown to at least twice its
# width when a larger N arrives, and never shrinks.
_numerators = np.empty((2, 0, 0))


def _parity_numerators(half_width: int) -> np.ndarray:
    """The numerator table, covering j, k = 0..N at least."""
    global _numerators
    table = _numerators  # one read: a racing thread may swap in another
    if table.shape[1] <= half_width:
        m = max(half_width + 1, 2 * table.shape[1]) - 1
        toeplitz = SincWeights.second_derivative(m).offset_matrix()
        kinetic = toeplitz[m:, m:]  # delta2(k - j), j, k = 0..M
        mirrored = toeplitz[m::-1, m:]  # delta2(j + k): rows reversed, still a view
        table = np.empty((2, m + 1, m + 1))
        np.add(kinetic, mirrored, out=table[0])
        np.subtract(kinetic, mirrored, out=table[1])
        table.setflags(write=False)
        _numerators = table
    return table


# an overflow here leaves a non-finite entry, which the check at the end
# reports: kh overflows for a huge h, V(sinh kh) is +inf on the diagonal
# wherever cosh(kh) overflows, and a subnormal h makes the scale 0, so 0/0 or
# x/0; as a decorator, the error state costs half what a with block does
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def assemble_collocation_matrix(
    potential: EvenPolynomialPotential, half_width: int, h: float, parity: int | None = None
) -> CollocationMatrix:
    """Build parity blocks directly from their closed-form entries: both for
    ``parity`` None, else only the block of parity +1 or -1. Each block's
    entries are the same bits whether it is built alone or with the other."""
    n = half_width
    parities = parity_blocks(parity)
    check_half_width(n)
    if not (isinstance(h, float) and 0.0 < h < math.inf):
        check_mesh_size(h)  # raises, or passes an h that is not a float
    points = np.arange(n + 1.0) * h  # the blocks need no point left of the centre
    scaled = np.cosh(points)
    cosh2 = scaled * scaled
    # the 1/sqrt(2) of row and column 0 of E, as cosh(0) * sqrt(2) = sqrt(2)
    # in the denominator; row and column 0 of an odd slab are not read
    scaled[0] = _SQRT_TWO
    scale = np.multiply.outer(scaled, scaled)
    scale *= -(h * h)
    numerators = _parity_numerators(n)
    if len(parities) == 1:  # one slab, divided in place; its diagonal a 1-D view
        slab = 0 if parities[0] > 0 else 1
        np.divide(numerators[slab, : n + 1, : n + 1], scale, out=scale)
        entries, diagonal = scale[np.newaxis], scale.reshape(-1)[:: n + 2]
    else:
        entries = np.divide(numerators[:, : n + 1, : n + 1], scale)
        diagonal = entries.reshape(2, -1)[:, :: n + 2]
    diagonal += transformed_potential_scaled(potential, points, cosh2)
    # The diagonals alone decide finiteness. With s = ``scaled``, entry (j, k)
    # is a numerator over s_j s_k h^2. For j != k >= 1 the numerator is at most
    # 2 + 2/9 in size against at least pi^2/3 - 1/2 on the diagonal, and
    # s_j s_k >= s_m^2 at m = min(j, k); in row and column 0 of E, |entry| h^2
    # is at most 4/sqrt(2) against |E[0,0]| h^2 = pi^2/3. Rounding is monotone,
    # so an off-diagonal entry overflows only where a diagonal one does. It is
    # NaN only when s_j s_k h^2 is 0 or NaN, which needs h*h == 0, and then
    # every diagonal entry is non-finite as well. An overflowing cosh makes
    # V(sinh kh) = +inf on the diagonal. A finite sum proves every entry
    # finite in one call; finite entries whose sum overflows are told apart
    # from a non-finite entry by the entrywise test.
    if not math.isfinite(np.add.reduce(diagonal, None)) and not np.isfinite(diagonal).all():
        first = diagonal.reshape(-1, n + 1)[0]  # the first block's diagonal
        k = n - int(np.argmax(~np.isfinite(first[::-1])))  # the outermost
        raise CollocationOverflowError(
            f"non-finite matrix entry at collocation point t = kh = {k * h:.6g} "
            f"(k = {k}, h = {h:.6g})"
        )
    return CollocationMatrix(n, h, entries, parities)
