import math
import warnings

import numpy as np
import pytest

from descm import (
    CollocationOverflowError,
    EvenPolynomialPotential,
    analytic_catalog,
    assemble_collocation_matrix,
    collocation_trace,
    optimal_mesh_size,
    parse_potential,
    trace_minimized_mesh_size,
)
from conftest import random_potential
from oracles import assemble_generalized_pair
from test_sinc_basis import fd_second_derivative, sinc_basis

QUARTIC = EvenPolynomialPotential((1.0, 1.0))
V1 = analytic_catalog()[0].potential


class TestEntries:
    def test_center_entry(self):
        center = assemble_collocation_matrix(QUARTIC, 1, 1.0).entries[1, 1]
        assert center == pytest.approx(math.pi**2 / 3.0 - 0.5, rel=1e-15)
        assert center == pytest.approx(2.7898681336964524, rel=1e-14)

    def test_corner_entry_against_difference_oracle(self):
        # offset 2 between the points -h and +h; the scaled second
        # derivative there is recomputed from a five-point stencil
        h = 1.0
        corner = assemble_collocation_matrix(QUARTIC, 1, h).entries[0, 2]  # j = -1, k = +1
        weight = h * h * fd_second_derivative(lambda t: sinc_basis(-1, h, t), h, 5e-4)
        expected = -weight / (h * h * math.cosh(-h) * math.cosh(h))
        assert corner == pytest.approx(expected, abs=1e-7)
        assert corner == pytest.approx(0.5 / math.cosh(1.0) ** 2, rel=1e-14)
        assert corner == pytest.approx(0.20998717080701304, rel=1e-12)

    def test_shape_and_mesh_recorded(self):
        k = assemble_collocation_matrix(QUARTIC, 7, 0.21)
        assert k.size == 15
        assert k.entries.shape == (15, 15)
        assert k.mesh == 0.21
        assert k.half_width == 7

    def test_symmetry_bit_for_bit(self, rng):
        for _ in range(10):
            p = random_potential(rng, with_constant=True)
            n = int(rng.integers(1, 20))
            h = float(rng.uniform(0.05, 1.0))
            k = assemble_collocation_matrix(p, n, h)
            assert np.array_equal(k.entries, k.entries.T)
        # the matrices the solve path hands to LAPACK, which reads one triangle
        wells = [case.potential for case in analytic_catalog()]
        wells += [parse_potential("poly:-20,1"), parse_potential("cheb:20;shift=-1")]
        for p in wells:
            for n in (1, 13, 60, 150):
                for h in (optimal_mesh_size(p, n), trace_minimized_mesh_size(p, n)):
                    k = assemble_collocation_matrix(p, n, h)
                    assert np.array_equal(k.entries, k.entries.T), (p, n, h)
        # fixed h far out: diagonal entries up to about 1e77
        k = assemble_collocation_matrix(QUARTIC, 30, 1.5)
        assert np.abs(k.entries).max() > 1e70
        assert np.array_equal(k.entries, k.entries.T)

    def test_trace_matches_closed_form(self):
        k = assemble_collocation_matrix(V1, 12, 0.2)
        assert k.trace() == pytest.approx(collocation_trace(V1, 12, 0.2), rel=1e-12)

    def test_kinetic_block_is_toeplitz(self, rng):
        n, h = 8, 0.3
        p = random_potential(rng)
        k = assemble_collocation_matrix(p, n, h)
        c = np.cosh(np.arange(-n, n + 1) * h)
        scaled = k.entries * np.outer(c, c) * h * h
        for offset in range(1, 2 * n + 1):
            diag = np.diagonal(scaled, offset)
            assert np.all(np.abs(diag - diag[0]) <= 1e-13 * max(1.0, abs(diag[0])))

    def test_entries_immutable(self):
        k = assemble_collocation_matrix(QUARTIC, 2, 0.5)
        with pytest.raises(ValueError):
            k.entries[0, 0] = 1.0


class TestGeneralizedPair:
    def test_center_and_weights(self):
        stiffness, diag = assemble_generalized_pair(QUARTIC, 3, 1.0)
        mid = 3
        assert diag[mid] == 1.0
        assert stiffness[mid, mid] == pytest.approx(math.pi**2 / 3.0 - 0.5, rel=1e-15)
        assert np.all(diag > 0.0)
        assert np.array_equal(stiffness, stiffness.T)

    def test_conjugation_reproduces_reduced_matrix(self):
        n, h = 6, 0.3
        stiffness, diag = assemble_generalized_pair(V1, n, h)
        c = np.sqrt(diag)
        conjugated = stiffness / np.outer(c, c)
        k = assemble_collocation_matrix(V1, n, h)
        scale = np.abs(k.entries).max()
        assert np.abs(conjugated - k.entries).max() <= 1e-14 * scale

    def test_generalized_eigenvalues_match_reduced(self):
        # 5x5 case: spectrum of the reduced matrix equals the spectrum of
        # the explicitly conjugated pair
        n, h = 2, 0.6
        stiffness, diag = assemble_generalized_pair(QUARTIC, n, h)
        c = np.sqrt(diag)
        generalized = np.linalg.eigvalsh(stiffness / np.outer(c, c))
        reduced = np.linalg.eigvalsh(assemble_collocation_matrix(QUARTIC, n, h).entries)
        assert np.abs(generalized - reduced).max() <= 1e-10


class TestShiftedPositiveDefiniteness:
    def test_catalog_matrices_bounded_below(self):
        for case in analytic_catalog():
            n = 10
            h = optimal_mesh_size(case.potential, n)
            k = assemble_collocation_matrix(case.potential, n, h)
            smallest = np.linalg.eigvalsh(k.entries)[0]
            shifts = [2.0**j for j in range(11)]
            assert any(smallest > -shift for shift in shifts)


class TestOverflowGuards:
    def test_cosh_overflow_names_point(self):
        with pytest.raises(CollocationOverflowError) as info:
            assemble_collocation_matrix(QUARTIC, 100, 10.0)
        assert "1000" in str(info.value)

    def test_nonfinite_entry_names_point(self):
        # potential of degree 20 overflows the diagonal near |x| = 66
        deep = EvenPolynomialPotential((0.0,) * 9 + (1.0,))
        with pytest.raises(CollocationOverflowError):
            assemble_collocation_matrix(deep, 11, 6.0)

    def test_overflowing_entries_raise_without_numpy_warnings(self):
        # cosh(690)^2 overflows the kinetic denominator and V the diagonal
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CollocationOverflowError):
                assemble_collocation_matrix(QUARTIC, 300, 2.3)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            assemble_collocation_matrix(QUARTIC, 0, 0.1)
        with pytest.raises(ValueError):
            assemble_collocation_matrix(QUARTIC, 3, -0.1)
