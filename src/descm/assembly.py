"""Assembly of the dense symmetric collocation matrix.

The reduced matrix acting on z = cosh(kh) v(kh) has entries

    A[j,k] = -delta2(k-j) / (h^2 cosh(jh) cosh(kh))          for j != k,
    A[k,k] = (pi^2/3) / (h^2 cosh(kh)^2) + W(kh)/cosh(kh)^2,

with W the transformed potential. cosh(kh) is evaluated once per point, and
its square is shared with W/cosh^2. The generalized pair (stiffness matrix,
diagonal weight) it was reduced from is never formed; solving goes through
the reduced matrix directly, which is exactly symmetric by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .de_map import transformed_potential_scaled
from .potential import EvenPolynomialPotential
from .sinc_basis import SincWeights


class CollocationOverflowError(OverflowError):
    """A collocation point produced a non-finite matrix entry, or the trace
    the mesh search minimizes overflowed to -inf."""


@dataclass(frozen=True)
class CollocationMatrix:
    """Dense symmetric collocation matrix over points kh, k in [-N, N]."""

    half_width: int
    mesh: float
    entries: np.ndarray

    def __post_init__(self):
        self.entries.setflags(write=False)

    @property
    def size(self) -> int:
        return 2 * self.half_width + 1

    def trace(self) -> float:
        return float(np.trace(self.entries))


def _collocation_points(half_width: int, h: float) -> np.ndarray:
    if half_width < 1:
        raise ValueError(f"truncation half-width must be >= 1, got {half_width}")
    if not (0.0 < h < np.inf):
        raise ValueError(f"mesh size must be positive and finite, got {h}")
    return np.arange(-half_width, half_width + 1) * h


def assemble_collocation_matrix(
    potential: EvenPolynomialPotential, half_width: int, h: float
) -> CollocationMatrix:
    """Build the reduced symmetric matrix directly from its closed-form entries."""
    points = _collocation_points(half_width, h)
    weights = SincWeights.second_derivative(half_width)
    # an overflow here leaves a non-finite entry, which the check below reports;
    # V(sinh kh) is +inf on the diagonal wherever cosh(kh) overflows
    with np.errstate(over="ignore"):
        c = np.cosh(points)
        entries = weights.offset_matrix() / (-(h * h) * np.multiply.outer(c, c))
        entries.flat[:: len(points) + 1] += transformed_potential_scaled(potential, points, c * c)
    if not np.isfinite(entries).all():
        k = int(np.argmax(~np.isfinite(np.diagonal(entries)))) - half_width
        raise CollocationOverflowError(
            f"non-finite matrix entry at collocation point x = {k * h:.6g} (k = {k}, h = {h:.6g})"
        )
    return CollocationMatrix(half_width=half_width, mesh=h, entries=entries)

