"""Sinc second-derivative collocation weights.

The shifted basis function is S(j,h)(x) = sinc((x - jh)/h) with
sinc(z) = sin(pi z)/(pi z), numpy's ``np.sinc``. Enforcing a second-order
equation at the collocation points x = kh only ever needs the scaled second
derivative values

    delta2(r) = -pi^2/3 if r == 0 else -2(-1)^r / r^2

where r = k - j is the offset between collocation point and basis center.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# delta2(0). The closed-form trace reads this same constant, so it and the
# assembled diagonal agree bit for bit.
D2_DIAGONAL = -(np.pi**2) / 3.0


@dataclass(frozen=True)
class SincWeights:
    """Collocation weights for offsets -2N..2N, stored once per truncation.

    The kinetic block of the collocation matrix is Toeplitz in the offset, so
    a single length-(4N+1) array serves every row.
    """

    half_width: int
    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)

    @classmethod
    def second_derivative(cls, half_width: int) -> "SincWeights":
        off = np.arange(-2 * half_width, 2 * half_width + 1)
        values = np.empty(off.shape)
        nz = off != 0
        values[nz] = -2.0 * (-1.0) ** off[nz] / (off[nz] * off[nz])
        values[2 * half_width] = D2_DIAGONAL
        return cls(half_width=half_width, values=values)

    def offset_matrix(self, n_points_half: int) -> np.ndarray:
        """Dense (2M+1)x(2M+1) matrix of values at offsets k - j."""
        idx = np.arange(2 * n_points_half + 1)
        r = idx[None, :] - idx[:, None]
        return self.values[r + 2 * self.half_width]
