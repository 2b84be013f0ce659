import math

import mpmath
import numpy as np
import pytest

from descm import (
    EvenPolynomialPotential,
    analytic_catalog,
    parse_potential,
    transformed_potential_scaled,
)
from conftest import random_potential
from oracles import (
    transformed_potential,
    transformed_potential_general,
    transformed_potential_scaled_expression,
)

QUARTIC = EvenPolynomialPotential((1.0, 1.0))
HARMONIC = EvenPolynomialPotential((1.0,))


class TestTransformedPotential:
    def test_at_origin(self):
        # sinh(0) = 0 and sech(0) = 1 leave 1/4 - 3/4
        assert transformed_potential_scaled(QUARTIC, 0.0) == -0.5

    def test_at_log_two(self):
        # cosh^2 = 1.5625 and sinh^2 = 0.5625 at log 2, for the harmonic well
        expected = 0.25 / 1.5625 - 0.75 / 1.5625**2 + 0.5625
        assert expected == 0.4153
        assert transformed_potential_scaled(HARMONIC, math.log(2.0)) == pytest.approx(
            expected, rel=1e-12
        )

    def test_positive_far_out_for_catalog(self):
        for case in analytic_catalog():
            assert transformed_potential_scaled(case.potential, 10.0) > 0.0

    def test_even(self, rng):
        xs = rng.uniform(-25.0, 25.0, size=200)
        for _ in range(5):
            p = random_potential(rng, with_constant=True)
            assert np.array_equal(
                transformed_potential_scaled(p, xs), transformed_potential_scaled(p, -xs)
            )

    def test_growth_at_infinity(self, rng):
        cases = [case.potential for case in analytic_catalog()]
        cases += [random_potential(rng) for _ in range(10)]
        for p in cases:
            v4 = transformed_potential_scaled(p, 4.0)
            v8 = transformed_potential_scaled(p, 8.0)
            assert v8 > v4 > 0.0

    def test_ratio_growth(self):
        # membership condition for the trace-minimum existence argument
        for case in analytic_catalog():
            r = [transformed_potential_scaled(case.potential, x) for x in (6.0, 8.0, 10.0)]
            assert r[0] < r[1] < r[2]

    def test_scaled_consistent_with_plain(self, rng):
        xs = rng.uniform(-15.0, 15.0, size=100)
        for _ in range(5):
            p = random_potential(rng, with_constant=True)
            plain = transformed_potential(p, xs)
            scaled = transformed_potential_scaled(p, xs) * np.cosh(xs) ** 2
            assert np.allclose(scaled, plain, rtol=1e-11, atol=1e-13)

    def test_matches_plain_expression_bit_for_bit(self, rng):
        cases = [case.potential for case in analytic_catalog()]
        cases += [parse_potential("cheb:40;shift=-1")]
        cases += [random_potential(rng, with_constant=True) for _ in range(5)]
        ts = np.concatenate(
            [rng.uniform(-30.0, 30.0, 300), rng.uniform(-800.0, 800.0, 50), [0.0, 351.9, 710.0]]
        )
        before = ts.copy()
        for p in cases:
            got = transformed_potential_scaled(p, ts)
            assert got.tobytes() == transformed_potential_scaled_expression(p, ts).tobytes()
            assert ts.tobytes() == before.tobytes()
            for t in (0.0, 0.7, -3.0, 400.0):
                value = transformed_potential_scaled(p, t)
                assert type(value) is float
                assert value == transformed_potential_scaled_expression(p, t)

    def test_constant_term_is_amplified(self):
        # W carries the constant times cosh^2, so W/cosh^2 carries it as is
        p = EvenPolynomialPotential((1.0,), constant=2.0)
        x = 1.3
        base = transformed_potential_scaled(EvenPolynomialPotential((1.0,)), x)
        assert transformed_potential_scaled(p, x) == pytest.approx(base + 2.0, rel=1e-13)

    def test_matches_mpmath_beyond_twenty(self, rng):
        # Horner's rule in sinh^2 stays within a few ulp where the trace scan
        # reaches, against a 50-digit evaluation at the same float arguments
        cases = [case.potential for case in analytic_catalog()]
        cases.append(parse_potential("cheb:20;shift=-1"))
        cases += [random_potential(rng, with_constant=True) for _ in range(10)]
        half = np.linspace(20.0, 60.0, 161)[1:]
        ts = np.concatenate([half, -half])
        worst = 0.0
        with mpmath.workdps(50):
            for p in cases:
                coeffs = [mpmath.mpf(c) for c in p.coefficients]
                got = transformed_potential_scaled(p, ts)
                for t, value in zip(ts, got):
                    s2 = mpmath.sinh(mpmath.mpf(t)) ** 2
                    sech2 = 1 / mpmath.cosh(mpmath.mpf(t)) ** 2
                    poly = mpmath.mpf(0)
                    for c in reversed(coeffs):
                        poly = (poly + c) * s2
                    exact = sech2 / 4 - 3 * sech2**2 / 4 + poly + mpmath.mpf(p.constant)
                    if abs(exact) < 1.7e308:
                        worst = max(worst, float(abs(value - exact) / abs(exact)))
        assert worst <= 1e-14

    def test_finite_up_to_float_max_and_never_nan(self):
        # finite up to the float maximum (e^700 < 1.13e305), and far out +inf, never NaN
        assert transformed_potential_scaled(HARMONIC, 351.9) == pytest.approx(
            1.1334343549431738e305, rel=1e-14
        )
        ts = np.linspace(-1e4, 1e4, 20001)
        cases = [case.potential for case in analytic_catalog()]
        cases.append(parse_potential("poly:-10,-10,-10,-10,10"))
        for p in cases:
            assert not np.isnan(transformed_potential_scaled(p, ts)).any()

    def test_overflow_is_signed_infinity_not_nan(self):
        deep = EvenPolynomialPotential((-10.0, -10.0, -10.0, -10.0, 10.0))
        big = transformed_potential_scaled(deep, 400.0)
        assert math.isinf(big) and big > 0.0

    def test_sech_flush_region(self):
        # cosh^2 and sinh^2 both overflow here: sech^2 is 0 and V is +inf
        val = transformed_potential_scaled(HARMONIC, 360.0)
        assert math.isinf(val) or val > 0.0
        assert not math.isnan(val)


class TestGeneralFormOracle:
    def test_quartic_at_origin(self):
        got = transformed_potential_general(QUARTIC, math.sinh, 0.0, map_derivative_fn=math.cosh)
        assert got == pytest.approx(-0.5, abs=1e-6)

    def test_identity_map_no_potential(self):
        got = transformed_potential_general(lambda x: 0.0, lambda x: x, 0.9)
        assert abs(got) <= 1e-9

    def test_harmonic_matches_closed_form(self):
        x = 0.3
        got = transformed_potential_general(HARMONIC, math.sinh, x, map_derivative_fn=math.cosh)
        assert got == pytest.approx(transformed_potential(HARMONIC, x), abs=1e-6)

    def test_numeric_map_derivative_fallback(self):
        got = transformed_potential_general(HARMONIC, math.sinh, 0.4)
        assert got == pytest.approx(transformed_potential(HARMONIC, 0.4), abs=1e-5)

    def test_closed_form_agreement_randomized(self, rng):
        # np trig flavors so the algebraic (non-differentiated) term matches
        # the closed form exactly and only the stencil error remains
        for _ in range(10):
            p = random_potential(rng, with_constant=True)
            for x in rng.uniform(-3.0, 3.0, size=100):
                oracle = transformed_potential_general(
                    p, np.sinh, float(x), map_derivative_fn=np.cosh
                )
                assert abs(oracle - transformed_potential(p, float(x))) <= 1e-6

    def test_overflowing_stencil_rejected(self):
        with pytest.raises(FloatingPointError):
            transformed_potential_general(HARMONIC, math.sinh, 1e40)
