import math

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
from conftest import random_potential
from oracles import horner_potential


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

    @pytest.mark.parametrize("degree", [1, 3, 0, -2])
    def test_rejects_odd_or_nonpositive(self, degree):
        with pytest.raises(ValueError):
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

    def test_round_trip_through_spec_string(self):
        p = parse_potential("poly:0.1,3,-2,0.25;c0=1.5")
        assert parse_potential(p.spec_string()) == p

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
            "spam:1",
            "1,2,3",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(PotentialSpecError):
            parse_potential(bad)
