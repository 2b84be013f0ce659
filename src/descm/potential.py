"""Even polynomial potentials V(x) = c0 + sum_i c_i x^(2i) and the catalog of
analytically solvable validation cases.

Only even powers are ever formed, so evaluation is exactly symmetric in x.
The confinement condition c_m > 0 (positive leading coefficient) is enforced
at construction time.
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
        """Evaluate c0 + sum_i c_i x^(2i); accepts scalars or numpy arrays.

        Horner's rule in x^2 from the leading coefficient, accumulated in one
        buffer; on a Python float the in-place operators rebind, so a float
        comes back.
        """
        x2 = x * x
        *inner, leading = self.coefficients
        acc = leading * x2
        for c in reversed(inner):
            acc += c
            acc *= x2
        acc += self.constant
        return acc


@dataclass(frozen=True)
class AnalyticCase:
    """A potential with one exactly known energy level."""

    name: str
    potential: EvenPolynomialPotential
    level_index: int
    exact_energy: float


def chebyshev_well(degree: int, shift: float = 0.0) -> EvenPolynomialPotential:
    """Monomial expansion of T_degree(x) + shift as an even potential.

    The three-term recurrence T_{k+1} = 2x T_k - T_{k-1} is run in exact
    integer arithmetic and converted to float once at the end, so the large
    alternating coefficients (inner ones exceed the leading 2^(degree-1)) carry
    no rounding error. Odd degrees are rejected: an odd Chebyshev polynomial
    is not even. So are degrees above 808: the largest coefficient of T_808 is
    4.5e307, and T_810's does not fit in a double.
    """
    if degree < 2 or degree % 2 != 0:
        raise ValueError(f"degree must be a positive even integer, got {degree}")
    if degree > _MAX_CHEBYSHEV_DEGREE:
        raise ValueError(f"degree must be <= {_MAX_CHEBYSHEV_DEGREE}, beyond which the "
                         f"monomial coefficients overflow a double, got {degree}")
    prev = [1]       # T_0
    cur = [0, 1]     # T_1
    for _ in range(degree - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    even = tuple(float(cur[2 * i]) for i in range(1, degree // 2 + 1))
    return EvenPolynomialPotential(even, constant=float(cur[0]) + float(shift))


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
