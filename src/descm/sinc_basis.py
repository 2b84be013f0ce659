"""Sinc second-derivative collocation weights.

The shifted basis function is S(j,h)(x) = sinc((x - jh)/h) with
sinc(z) = sin(pi z)/(pi z), numpy's ``np.sinc``. Enforcing a second-order
equation at the collocation points x = kh only ever needs the scaled second
derivative values

    delta2(r) = -pi^2/3 if r == 0 else -2(-1)^r / r^2

where r = k - j is the offset between collocation point and basis center.
delta2 is even in r, so the parity blocks of the collocation matrix need
only delta2(k - j) and delta2(j + k) for j, k = 0..N; both are zero-copy
views of the Toeplitz matrix ``SincWeights.offset_matrix`` returns. The
weights are built from the closed form only when the assembly's table of
their sum and difference grows, the one cache of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# delta2(0). The closed-form trace reads this same constant, so it and the
# assembled diagonal agree bit for bit.
D2_DIAGONAL = -(np.pi**2) / 3.0


@dataclass(frozen=True)
class SincWeights:
    """Collocation weights for offsets -2N..2N.

    ``values`` is read-only and built from the closed form on each call;
    the assembly caches what it derives from them, so nothing here does.
    The kinetic part of the collocation matrix is Toeplitz in the offset,
    and ``offset_matrix`` reads it straight from ``values``. Its lower right
    (N+1)x(N+1) corner holds delta2(k - j) for j, k = 0..N, and the same
    corner with its rows reversed holds delta2(j + k).
    """

    half_width: int
    values: np.ndarray

    def __post_init__(self):
        self.values.setflags(write=False)

    @classmethod
    def second_derivative(cls, half_width: int) -> "SincWeights":
        if half_width < 0:
            raise ValueError(f"weight half-width must be >= 0, got {half_width}")
        off = np.arange(-2 * half_width, 2 * half_width + 1)
        values = np.empty(off.shape)
        nz = off != 0
        values[nz] = -2.0 * (-1.0) ** off[nz] / (off[nz] * off[nz])
        values[2 * half_width] = D2_DIAGONAL
        return cls(half_width=half_width, values=values)

    def offset_matrix(self) -> np.ndarray:
        """Read-only (2N+1)x(2N+1) Toeplitz view, entry [j, k] = values at k - j.

        Row j starts at offset -j, so the view steps back one weight per row
        and forward one per column; nothing is copied.
        """
        n = 2 * self.half_width + 1
        step = self.values.itemsize
        return np.ndarray((n, n), self.values.dtype, buffer=self.values,
                          offset=(n - 1) * step, strides=(-step, step))
