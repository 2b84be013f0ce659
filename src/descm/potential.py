"""Even polynomial potentials V(x) = c0 + sum_i c_i x^(2i) and the catalog of
analytically solvable validation cases.

Only even powers are ever formed, so evaluation is exactly symmetric in x.
The confinement condition c_m > 0 (positive leading coefficient) is enforced
at construction time. Chebyshev wells keep their exact monomial data but are
evaluated as a composition of the short T_p of their degree's prime factors,
which does not cancel as the monomials of a high degree do, save for an odd
prime factor above about 20: it still cancels in its own Horner polynomial
(``cheb:46`` = T_23 o T_2 is off by about 1e-8 on [-1, 1]). One Horner
routine in x^2 evaluates every polynomial here: V, V' and each stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


_MAX_CHEBYSHEV_DEGREE = 808

# potential kind in a spec string -> the name of its one ";key=value" option
_SPEC_OPTIONS = {"poly": "c0", "cheb": "shift"}


class PotentialSpecError(ValueError):
    """Raised for malformed potential specification strings."""


@dataclass(frozen=True)
class EvenPolynomialPotential:
    """An even polynomial potential, bounded below at infinity.

    ``coefficients[i - 1]`` is the coefficient of x^(2i); ``constant`` is the
    x^0 term. The constant shifts every eigenvalue rigidly and is needed to
    express shifted Chebyshev wells such as T_20(x) - 1.
    """

    coefficients: tuple[float, ...]
    constant: float = 0.0

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "constant", float(self.constant))
        if not coeffs:
            raise ValueError("potential needs at least one even-power coefficient")
        if not all(math.isfinite(c) for c in coeffs) or not math.isfinite(self.constant):
            raise ValueError("potential coefficients must be finite")
        if coeffs[-1] <= 0.0:
            raise ValueError(
                f"leading coefficient must be positive for confinement, got {coeffs[-1]}"
            )

    @property
    def degree_parameter(self) -> int:
        """Half the polynomial degree (the m in x^(2m))."""
        return len(self.coefficients)

    @property
    def leading_coefficient(self) -> float:
        return self.coefficients[-1]

    def __call__(self, x):
        """Evaluate c0 + sum_i c_i x^(2i); accepts scalars or numpy arrays."""
        return _horner_in_square((self.constant, *self.coefficients), 0, x)

    def derivative(self, x):
        """V'(x) = sum_i 2i c_i x^(2i-1); accepts scalars or numpy arrays.

        Horner's rule in x^2 runs on the coefficients 2i c_i / 2^p, with 2^p
        the least power of two >= 2m, then the sum is multiplied by x and by
        2^p. Scaling by a power of two is exact, so the result is that of
        Horner's rule on 2i c_i, except that no coefficient overflows: the
        V' of ``poly:1e308`` is finite wherever its value is.
        """
        scale = 1 << (2 * len(self.coefficients) - 1).bit_length()
        acc = _horner_in_square(
            tuple(c * (2 * i / scale) for i, c in enumerate(self.coefficients, 1)), 1, x)
        acc *= scale
        return acc


@dataclass(frozen=True, init=False)
class ChebyshevWell(EvenPolynomialPotential):
    """T_n(x) + shift, with the exact monomial ``coefficients`` and ``constant``
    of its expansion (they fix the degree, the leading coefficient and the
    closed-form mesh size) but evaluated by composition.

    T_a o T_b = T_ab, so T_n is the composition of T_p over the prime factors
    p of n, smallest first: with n = 2^j q and q odd, T_2(y) = 2y^2 - 1 is
    applied j times, mapping [-1, 1] onto itself, then the short odd T_p of
    each factor of q, each by Horner's rule in y^2. That does not cancel the
    way the monomials of T_40 do (off by 2.7e-2 on [-1, 1]), except within
    an odd factor p above about 20, whose T_p is one Horner polynomial with
    coefficients up to about 2.4^p: ``cheb:46`` = T_23 o T_2 is off by about
    1e-8 on [-1, 1]. V' follows by the chain rule. Far out every stage grows
    to +inf from its positive leading coefficient, so overflow gives inf,
    never NaN.
    """

    shift: float = 0.0

    def __init__(self, degree: int, shift: float = 0.0):
        exact = _chebyshev_integers(degree)
        even = tuple(float(exact[2 * i]) for i in range(1, degree // 2 + 1))
        super().__init__(even, constant=float(exact[0]) + float(shift))
        stages = []
        for p in _prime_factors(degree):
            t = _chebyshev_integers(p)
            odd = p % 2
            # T_p and T_p', each as (coefficients of y^(2i), 1 if odd: times y)
            stages.append(((tuple(float(c) for c in t[odd::2]), odd),
                           (tuple(float(k * t[k]) for k in range(2 - odd, p + 1, 2)), 1 - odd)))
        object.__setattr__(self, "shift", float(shift))
        object.__setattr__(self, "_stages", tuple(stages))

    def __call__(self, x):
        """T_n(x) + shift by composition; a Python float comes back as a float."""
        y = x
        for stage, _ in self._stages:
            y = _horner_in_square(*stage, y)
        y += self.shift
        return y

    def derivative(self, x):
        """T_n'(x), the product of T_p'(y) over the stages at each stage's input y."""
        *inner, (_, last_slope) = self._stages
        chain = 1.0
        y = x
        for stage, slope in inner:
            chain *= _horner_in_square(*slope, y)
            y = _horner_in_square(*stage, y)
        chain *= _horner_in_square(*last_slope, y)
        return chain


def _horner_in_square(coefficients, odd, y):
    """y^odd sum_i coefficients[i] y^(2i) by Horner's rule in y^2, a new value.

    The one evaluator of V, V' and the Chebyshev stages. The accumulator
    starts as the leading coefficient and is updated in place: on a Python
    float the in-place operators rebind, so a float comes back, and the first
    product with an array makes a new array that later steps update in place.
    """
    *inner, acc = coefficients
    y2 = y * y if inner else None  # c0 y alone forms no y^2, whose overflow warns
    for c in reversed(inner):
        acc *= y2
        acc += c
    if odd:
        acc *= y
    return acc


def _prime_factors(n: int) -> list[int]:
    """Prime factors of n >= 2 with multiplicity, smallest first."""
    factors, p = [], 2
    while n > 1:
        while n % p == 0:
            factors.append(p)
            n //= p
        p += 1
    return factors


def _chebyshev_integers(degree: int) -> list[int]:
    """Exact monomial coefficients of T_degree, index = power, by the
    three-term recurrence T_(k+1) = 2x T_k - T_(k-1) in integers."""
    prev = [1]       # T_0
    cur = [0, 1]     # T_1
    for _ in range(degree - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


@dataclass(frozen=True)
class AnalyticCase:
    """A potential with one exactly known energy level."""

    name: str
    potential: EvenPolynomialPotential
    level_index: int
    exact_energy: float


def chebyshev_well(degree: int, shift: float = 0.0) -> ChebyshevWell:
    """T_degree(x) + shift as an even potential.

    Its monomial expansion is computed in exact integer arithmetic and
    converted to float once at the end, so the large alternating coefficients
    (inner ones exceed the leading 2^(degree-1)) carry no rounding error; the
    well itself is evaluated by composition (see :class:`ChebyshevWell`). Odd
    degrees are rejected: an odd Chebyshev polynomial is not even. So are
    degrees above 808: the largest coefficient of T_808 is 4.5e307, and
    T_810's does not fit in a double.
    """
    if degree < 2 or degree % 2 != 0:
        raise ValueError(f"degree must be a positive even integer, got {degree}")
    if degree > _MAX_CHEBYSHEV_DEGREE:
        raise ValueError(f"degree must be <= {_MAX_CHEBYSHEV_DEGREE}, beyond which the "
                         f"monomial coefficients overflow a double, got {degree}")
    return ChebyshevWell(degree, shift)


def analytic_catalog() -> tuple[AnalyticCase, ...]:
    """The four supersymmetric potentials with a known exact level.

    Rational coefficients are materialized through :class:`Fraction` so the
    stored floats are the correctly rounded values of 105/64 etc.
    """
    f = lambda a, b: float(Fraction(a, b))
    return (
        AnalyticCase(
            "V1",
            EvenPolynomialPotential((1.0, -4.0, 1.0)),
            level_index=0,
            exact_energy=-2.0,
        ),
        AnalyticCase(
            "V2",
            EvenPolynomialPotential((4.0, -6.0, 1.0)),
            level_index=1,
            exact_energy=-9.0,
        ),
        AnalyticCase(
            "V3",
            EvenPolynomialPotential((f(105, 64), f(-43, 8), 1.0, -1.0, 1.0)),
            level_index=0,
            exact_energy=f(3, 8),
        ),
        AnalyticCase(
            "V4",
            EvenPolynomialPotential((f(169, 64), f(-59, 8), 1.0, -1.0, 1.0)),
            level_index=1,
            exact_energy=f(9, 8),
        ),
    )


def parse_potential(text: str) -> EvenPolynomialPotential:
    """Parse ``poly:<c1>,...,<cm>[;c0=<v>]`` or ``cheb:<n>[;shift=<v>]``.

    Decimal point only; no locale-dependent parsing.
    """
    if not isinstance(text, str) or ":" not in text:
        raise PotentialSpecError(f"potential spec must look like 'poly:...' or 'cheb:...', got {text!r}")
    head, _, body = text.partition(":")
    head = head.strip().lower()
    if head not in _SPEC_OPTIONS:
        raise PotentialSpecError(f"unknown potential kind {head!r}")
    body, _, option = body.partition(";")
    try:
        value = 0.0  # c0 for poly, shift for cheb
        if option:
            key, _, val = option.partition("=")
            if key.strip() != _SPEC_OPTIONS[head]:
                raise PotentialSpecError(f"unknown {head} option {key.strip()!r}")
            value = float(val)
        if head == "cheb":
            return chebyshev_well(int(body), value)
        coeffs = tuple(float(tok) for tok in body.split(",")) if body.strip() else ()
        if not coeffs:
            raise PotentialSpecError("poly: needs at least one coefficient")
        return EvenPolynomialPotential(coeffs, constant=value)
    except PotentialSpecError:
        raise
    except ValueError as exc:
        raise PotentialSpecError(f"bad potential spec {text!r}: {exc}") from exc
