"""The double-exponential change of variable x = sinh(t) and the transformed
potential it induces.

Substituting psi(x) = v(t)/sqrt((d/dx) asinh x) with x = sinh(t) turns
-psi'' + V(x) psi = E psi into the symmetric collocated form

    -v''(t) + W(t) v(t) = E cosh(t)^2 v(t),
    W(t) = 1/4 - (3/4) sech(t)^2 + cosh(t)^2 * V(sinh t).

Both W and the scaled variant W/cosh^2 (the diagonal contribution of the
reduced collocation matrix) are provided.
"""

from __future__ import annotations

import math

import numpy as np

from .potential import EvenPolynomialPotential

_LOG2 = math.log(2.0)
# Beyond this |t|, cosh^2 * sinh^(2i) is evaluated by exponent arithmetic:
# collocation points stay well below it, but trace scans over large mesh
# sizes do not.
_DIRECT_CUTOFF = 20.0
# sech^2 is below 4e-305 long before cosh itself overflows near |t| ~ 710.
_SECH_FLUSH = 350.0


def _poly_sinh_large(p: EvenPolynomialPotential, ax: float, cosh_power: int) -> float:
    """cosh(ax)^cosh_power * (c0 + sum_i c_i sinh(ax)^(2i)) for large ax.

    Each monomial is handled as sign * exp(log magnitude); the common
    max-exponent is factored out so a finite result never overflows through
    an intermediate, and a true overflow returns a signed infinity instead
    of a NaN from inf * 0 or inf - inf.
    """
    log_s = ax - _LOG2 + math.log1p(-math.exp(-2.0 * ax))
    log_c = ax - _LOG2 + math.log1p(math.exp(-2.0 * ax))
    extra = cosh_power * log_c
    exps = []
    signs = []
    if p.constant != 0.0:
        exps.append(math.log(abs(p.constant)) + extra)
        signs.append(math.copysign(1.0, p.constant))
    for i, c in enumerate(p.coefficients, start=1):
        if c != 0.0:
            exps.append(math.log(abs(c)) + 2.0 * i * log_s + extra)
            signs.append(math.copysign(1.0, c))
    if not exps:
        return 0.0
    top = max(exps)
    acc = sum(s * math.exp(e - top) for s, e in zip(signs, exps))
    if top > 700.0:
        return math.inf * acc if acc != 0.0 else 0.0
    return acc * math.exp(top)


def _transformed(p: EvenPolynomialPotential, x, scaled: bool):
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty(arr.shape)
    ax = np.abs(arr)
    small = ax <= _DIRECT_CUTOFF
    if small.any():
        xs = arr[small]
        s2 = np.sinh(xs) ** 2
        poly = np.zeros_like(xs)
        for c in reversed(p.coefficients):
            poly = (poly + c) * s2
        poly = poly + p.constant
        sech2 = 1.0 / np.cosh(xs) ** 2
        if scaled:
            out[small] = 0.25 * sech2 - 0.75 * sech2 * sech2 + poly
        else:
            out[small] = 0.25 - 0.75 * sech2 + np.cosh(xs) ** 2 * poly
    for i in np.nonzero(~small)[0]:
        a = float(ax[i])
        sech2 = 0.0 if a > _SECH_FLUSH else 1.0 / math.cosh(a) ** 2
        if scaled:
            out[i] = 0.25 * sech2 - 0.75 * sech2 * sech2 + _poly_sinh_large(p, a, 0)
        else:
            out[i] = 0.25 - 0.75 * sech2 + _poly_sinh_large(p, a, 2)
    return float(out[0]) if scalar else out


def transformed_potential(potential: EvenPolynomialPotential, x):
    """W(x) = 1/4 - (3/4) sech(x)^2 + cosh(x)^2 * V(sinh x).

    The constant term of the potential participates inside V and is thus
    amplified by cosh^2, exactly as the change of variable dictates.
    """
    return _transformed(potential, x, scaled=False)


def transformed_potential_scaled(potential: EvenPolynomialPotential, x):
    """W(x)/cosh(x)^2, the potential part of the reduced-matrix diagonal.

    Algebraically (1/4) sech^2 - (3/4) sech^4 + V(sinh x); this is the form
    shared by the matrix diagonal and the closed-form trace so the two agree
    bit for bit.
    """
    return _transformed(potential, x, scaled=True)
