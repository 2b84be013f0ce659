"""The double-exponential change of variable x = sinh(t) and the transformed
potential it induces.

Substituting psi(x) = v(t)/sqrt((d/dx) asinh x) with x = sinh(t) turns
-psi'' + V(x) psi = E psi into the symmetric collocated form

    -v''(t) + W(t) v(t) = E cosh(t)^2 v(t),
    W(t) = 1/4 - (3/4) sech(t)^2 + cosh(t)^2 * V(sinh t).

The solve path needs only the scaled variant W/cosh^2, the diagonal
contribution of the reduced collocation matrix.
"""

from __future__ import annotations

import numpy as np

from .potential import EvenPolynomialPotential


def transformed_potential_scaled(potential: EvenPolynomialPotential, x):
    """W(x)/cosh(x)^2 = (1/4) sech^2 - (3/4) sech^4 + V(sinh x).

    The matrix diagonal and the closed-form trace share this expression, so
    the two agree bit for bit. V runs Horner's rule in sinh(x)^2 from its
    positive leading coefficient, so far out it overflows to +inf without
    ever forming inf - inf or inf * 0; a NaN never appears.
    """
    with np.errstate(over="ignore"):
        cosh2 = np.cosh(x)
        cosh2 **= 2
        sech2 = 1.0 / cosh2
        value = 0.25 * sech2
        sech4 = 0.75 * sech2
        sech4 *= sech2
        value -= sech4
        value += potential(np.sinh(x))
    return float(value) if np.ndim(value) == 0 else value
