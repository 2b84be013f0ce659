import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy

from descm import (
    EvenPolynomialPotential,
    PotentialSpecError,
    analytic_catalog,
    chebyshev_well,
    parse_potential,
)
from descm.mesh import optimal_mesh_size
from descm.potential import ChebyshevWell
from conftest import random_potential
from oracles import chebyshev_derivative_from_one, horner_potential


def sympy_chebyshev_coefficients(degree):
    """Independent monomial expansion of T_degree, exact integers."""
    x = sympy.Symbol("x")
    poly = sympy.Poly(sympy.chebyshevt(degree, x), x)
    coeffs = [int(c) for c in reversed(poly.all_coeffs())]  # index = power
    return coeffs


class TestEvaluate:
    def test_origin_kills_all_powers(self):
        assert EvenPolynomialPotential((1.0, 1.0))(0.0) == 0.0

    def test_coefficient_sum_at_one(self):
        v1 = EvenPolynomialPotential((1.0, -4.0, 1.0))
        assert v1(1.0) == -2.0

    def test_sparse_high_degree(self):
        # x^2 + 100 x^8 is c = (1, 0, 0, 100)
        p = EvenPolynomialPotential((1.0, 0.0, 0.0, 100.0))
        assert p(1.0) == 101.0

    def test_constant_term_participates(self):
        p = EvenPolynomialPotential((2.0,), constant=-1.5)
        assert p(0.0) == -1.5
        assert p(2.0) == pytest.approx(8.0 - 1.5, rel=1e-15)

    def test_matches_out_of_place_horner_bit_for_bit(self, rng):
        for _ in range(20):
            p = random_potential(rng, max_half_degree=8, with_constant=True)
            # the huge points overflow to +inf, as the plain expression does
            xs = np.concatenate(
                [rng.uniform(-3.0, 3.0, 200), rng.uniform(-1e80, 1e80, 20), [0.0, -0.0]]
            )
            before = xs.copy()
            with np.errstate(over="ignore"):
                assert p(xs).tobytes() == horner_potential(p, xs).tobytes()
            assert xs.tobytes() == before.tobytes()
            for x in (0.0, 0.7, -2.5):
                assert type(p(x)) is float
                assert p(x) == horner_potential(p, x)

    def test_even_symmetry_is_exact(self, rng):
        xs = rng.uniform(-10.0, 10.0, size=1000)
        for _ in range(10):
            p = random_potential(rng, with_constant=True)
            left = p(xs)
            right = p(-xs)
            assert np.array_equal(left, right)

    def test_validation(self):
        with pytest.raises(ValueError):
            EvenPolynomialPotential(())
        with pytest.raises(ValueError):
            EvenPolynomialPotential((1.0, -1.0))  # leading must be positive
        with pytest.raises(ValueError):
            EvenPolynomialPotential((math.nan,))

    def test_degree_parameter(self):
        assert EvenPolynomialPotential((1.0, 0.0, 3.0)).degree_parameter == 3


class TestDerivative:
    def test_matches_exact_derivative_of_random_wells(self, rng):
        # against sum_i 2i c_i x^(2i-1) in exact rational arithmetic, relative
        # to the sum of the terms' magnitudes (Horner's bound)
        eps = np.finfo(float).eps
        for _ in range(30):
            p = random_potential(rng, max_half_degree=8, with_constant=True)
            xs = rng.uniform(-3.0, 3.0, 40)
            got = p.derivative(xs)
            for x, value in zip(xs, got):
                terms = [2 * i * Fraction(c) * Fraction(x) ** (2 * i - 1)
                         for i, c in enumerate(p.coefficients, start=1)]
                exact = sum(terms)
                assert abs(Fraction(value) - exact) <= 16 * eps * sum(abs(t) for t in terms)

    def test_equals_horner_on_doubled_coefficients_bit_for_bit(self, rng):
        # scaling by a power of two is exact, so only overflow could tell the
        # package's scaled coefficients from 2i c_i
        for _ in range(20):
            p = random_potential(rng, max_half_degree=8, with_constant=True)
            *inner, leading = (2 * i * c for i, c in enumerate(p.coefficients, start=1))
            xs = rng.uniform(-3.0, 3.0, 100)
            acc = leading
            for d in reversed(inner):
                acc = acc * (xs * xs) + d
            assert p.derivative(xs).tobytes() == (acc * xs).tobytes()
            for x in (0.0, 0.7, -2.5):
                assert type(p.derivative(x)) is float

    def test_is_exactly_odd(self, rng):
        xs = rng.uniform(-10.0, 10.0, size=500)
        for p in [random_potential(rng, with_constant=True) for _ in range(10)]:
            assert np.array_equal(p.derivative(xs), -p.derivative(-xs))

    @pytest.mark.parametrize("spec,x,want", [
        ("poly:1e308", 1e-77, 2e231),
        ("poly:" + "0," * 9 + "1e308", 1e-30, 2e-261),
        ("poly:1e-300", 1e10, 2e-290),
        ("poly:1", np.array([1e200]), 2e200),
        ("cheb:2", np.array([-1e200]), -4e200),
    ])
    def test_huge_and_tiny_coefficients_without_warnings(self, spec, x, want):
        # 2 c_1 = 2e308 and 20 c_10 overflow; the derivative itself does not.
        # A one-term V' (2 c_1 x, or T_2' = 4x) forms no x^2, whose overflow
        # would warn on an array
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = parse_potential(spec).derivative(x)
        assert got == pytest.approx(want, rel=1e-15)


class TestChebyshevWell:
    def test_degree_two(self):
        p = chebyshev_well(2, shift=-1.0)
        assert p.constant == -2.0
        assert p.coefficients == (2.0,)

    def test_degree_four(self):
        p = chebyshev_well(4, shift=-1.0)
        assert p.constant == 0.0
        assert p.coefficients == (-8.0, 8.0)

    def test_degree_twenty(self):
        p = chebyshev_well(20, shift=-1.0)
        assert p.constant == 0.0
        assert p.coefficients[-1] == 2.0**19 == 524288.0

    @pytest.mark.parametrize("degree", [2, 4, 10, 16, 20])
    def test_matches_symbolic_expansion(self, degree):
        expected = sympy_chebyshev_coefficients(degree)
        p = chebyshev_well(degree, shift=0.0)
        assert p.constant == float(expected[0])
        assert all(c == 0 for c in expected[1::2])
        for i, c in enumerate(p.coefficients, start=1):
            assert c == float(expected[2 * i])

    @pytest.mark.parametrize("degree", [2, 4, 10])
    def test_matches_trig_form(self, degree, rng):
        shift = -1.0
        p = chebyshev_well(degree, shift)
        xs = rng.uniform(-1.0, 1.0, size=50)
        ref = np.cos(degree * np.arccos(xs)) + shift
        got = p(xs)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))

    def test_trig_form_degree_twenty(self, rng):
        # Monomial evaluation of a degree-20 expansion cancels coefficients of
        # size 2^21 near |x| = 1, so the achievable agreement is coarser.
        p = chebyshev_well(20, -1.0)
        xs = rng.uniform(-1.0, 1.0, size=50)
        ref = np.cos(20 * np.arccos(xs)) - 1.0
        assert np.all(np.abs(p(xs) - ref) <= 1e-9)

    @pytest.mark.parametrize("degree", [
        2, 4, 6, 8, 10, 14, 20, 40,
        pytest.param(22, marks=pytest.mark.xfail(strict=True, reason=(
            "the odd factor T_11 of T_22 = T_11 o T_2 cancels in its own Horner polynomial: "
            "up to 2.7e-13 off on [-1, 1] against the 1e-13 bound"))),
        pytest.param(46, marks=pytest.mark.xfail(strict=True, reason=(
            "the odd factor T_23 of T_46 = T_23 o T_2 cancels in its own Horner polynomial: "
            "up to 1.1e-8 off on [-1, 1] (4.7e-9 at this test's points) against the 1e-13 "
            "bound; an odd factor cancels from p = 11 on (2.7e-13), and a three-term "
            "recurrence for it would fix it"))),
        pytest.param(94, marks=pytest.mark.xfail(strict=True, reason=(
            "the odd factor T_47 of T_94 = T_47 o T_2 cancels in its own Horner polynomial: "
            "up to 17 off on [-1, 1], a meaningless well, against the 1e-13 bound"))),
    ])
    def test_composition_matches_mpmath(self, degree, rng):
        # T_n and T_n' = n U_(n-1) at 50 digits, at the same float arguments:
        # absolutely on [-1, 1], relatively out to |x| = 1e3
        shift = -1.0
        p = chebyshev_well(degree, shift)
        assert isinstance(p, ChebyshevWell)
        inside = np.concatenate([rng.uniform(-1.0, 1.0, 200), [-1.0, 0.0, 1.0]])
        outside = np.exp(rng.uniform(0.0, math.log(1e3), 100)) * rng.choice([-1.0, 1.0], 100)
        eps = np.finfo(float).eps
        with mpmath.workdps(50):
            def exact(x):
                x = mpmath.mpf(float(x))
                return mpmath.chebyt(degree, x) + shift, degree * mpmath.chebyu(degree - 1, x)

            for x, value, slope in zip(inside, p(inside), p.derivative(inside)):
                want, want_slope = exact(x)
                assert abs(value - want) <= 1e-13
                assert abs(slope - want_slope) <= 16 * degree**2 * eps
            for x, value, slope in zip(outside, p(outside), p.derivative(outside)):
                want, want_slope = exact(x)
                assert abs(value - want) <= 1e-14 * abs(want)
                assert abs(slope - want_slope) <= 1e-14 * abs(want_slope)

    def test_composition_beats_the_monomials_of_t40(self, rng):
        p = chebyshev_well(40, -1.0)
        monomial = EvenPolynomialPotential(p.coefficients, p.constant)
        xs = rng.uniform(-1.0, 1.0, size=200)
        ref = np.cos(40 * np.arccos(xs)) - 1.0
        assert np.abs(p(xs) - ref).max() <= 1e-12
        assert np.abs(monomial(xs) - ref).max() > 1e-3

    def test_keeps_the_monomial_data(self):
        # degree, leading coefficient and closed-form mesh size are the expansion's
        p = chebyshev_well(40, -1.0)
        monomial = EvenPolynomialPotential(p.coefficients, p.constant)
        assert p.degree_parameter == 20
        assert p.leading_coefficient == 2.0**39
        assert p.shift == -1.0
        for n in (1, 30, 500):
            assert optimal_mesh_size(p, n) == optimal_mesh_size(monomial, n)
        # 1 + 1e-20 rounds to the constant 1.0 of T_4 + 0, but the wells differ
        assert chebyshev_well(4, 1e-20).constant == chebyshev_well(4, 0.0).constant
        assert chebyshev_well(4, 1e-20) != chebyshev_well(4, 0.0)

    @pytest.mark.parametrize("degree", [4, 20, 40, 60, 808])
    def test_even_value_odd_slope_and_inf_far_out(self, degree, rng):
        p = chebyshev_well(degree, -1.0)
        xs = np.concatenate([rng.uniform(-3.0, 3.0, 200), [1e200, -1e300]])
        with warnings.catch_warnings(), np.errstate(over="ignore"):
            warnings.simplefilter("error")
            values, slopes = p(xs), p.derivative(xs)
            assert np.array_equal(values, p(-xs))
            assert np.array_equal(slopes, -p.derivative(-xs))
        assert values[-2] == values[-1] == math.inf
        assert slopes[-2] == math.inf and slopes[-1] == -math.inf
        assert not np.isnan(values).any() and not np.isnan(slopes).any()

    # one stage, two, the stages 2 * 2 * 3 * 3 * 5 of 180, odd factors 31,
    # 47 and 101 (one large Horner stage), and the last degree
    @pytest.mark.parametrize("degree", [2, 4, 6, 20, 62, 94, 180, 202, 808])
    def test_derivative_equals_the_chain_started_from_one_bit_for_bit(self, degree, rng):
        p = chebyshev_well(degree, -1.0)
        specials = [0.0, -0.0, 1.0, -1.0, 5e-324, 1e200, -1e300, math.inf, -math.inf, math.nan]
        xs = np.concatenate([rng.uniform(-1.5, 1.5, 294), specials]).reshape(4, 76)
        with np.errstate(over="ignore", invalid="ignore"):
            got = p.derivative(xs)
            assert got.tobytes() == chebyshev_derivative_from_one(p, xs).tobytes()
            assert not np.shares_memory(got, xs)  # a new array, which callers update in place
            for x in xs.reshape(-1)[::7].tolist() + specials:
                got = p.derivative(x)
                assert type(got) is float, x
                assert got.hex() == chebyshev_derivative_from_one(p, x).hex(), x

    def test_python_float_in_float_out(self):
        p = chebyshev_well(20, -1.0)
        assert type(p(0.3)) is float and type(p.derivative(0.3)) is float
        assert p(0.3) == p(np.array([0.3]))[0]

    @pytest.mark.parametrize("degree", [1, 3, 0, -2])
    def test_rejects_odd_or_nonpositive(self, degree):
        with pytest.raises(ValueError):
            chebyshev_well(degree)

    def test_last_degree_within_double_range(self):
        p = chebyshev_well(808)
        assert all(math.isfinite(c) for c in p.coefficients)
        assert p.leading_coefficient == 2.0**807

    @pytest.mark.parametrize("degree", [810, 2000])
    def test_rejects_degree_beyond_double_range(self, degree):
        with pytest.raises(ValueError, match="808"):
            chebyshev_well(degree)


class TestAnalyticCatalog:
    def test_exact_energies(self):
        catalog = analytic_catalog()
        assert [c.exact_energy for c in catalog] == [-2.0, -9.0, 0.375, 1.125]
        assert [c.level_index for c in catalog] == [0, 1, 0, 1]

    def test_values_at_one(self):
        v1, v2, v3, v4 = analytic_catalog()
        assert v1.potential(1.0) == -2.0
        assert v2.potential(1.0) == -1.0
        # 105/64 - 43/8 + 1 - 1 + 1 = -175/64
        assert v3.potential(1.0) == pytest.approx(-2.734375, abs=1e-15)
        # 169/64 - 59/8 + 1 - 1 + 1 = -239/64
        assert v4.potential(1.0) == pytest.approx(-3.734375, abs=1e-15)

    def test_no_constant_terms(self):
        for case in analytic_catalog():
            assert case.potential(0.0) == 0.0


class TestParse:
    def test_poly(self):
        p = parse_potential("poly:1,-4,1")
        assert p.coefficients == (1.0, -4.0, 1.0)
        assert p.constant == 0.0

    def test_poly_with_constant(self):
        p = parse_potential("poly:1,1;c0=-0.5")
        assert p.coefficients == (1.0, 1.0)
        assert p.constant == -0.5

    def test_cheb(self):
        assert parse_potential("cheb:20;shift=-1") == chebyshev_well(20, -1.0)
        assert parse_potential("cheb:4") == chebyshev_well(4, 0.0)

    @pytest.mark.parametrize(
        "bad",
        [
            "poly:",
            "poly:1,2,x",
            "poly:1,-1",  # nonpositive leading coefficient
            "poly:1;k=2",
            "cheb:7",
            "cheb:abc",
            "cheb:4;s=1",
            "cheb:2000",  # coefficients beyond double range
            "spam:1",
            "1,2,3",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(PotentialSpecError):
            parse_potential(bad)
