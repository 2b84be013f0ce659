import math
import warnings

import numpy as np
import pytest

from descm import (
    CollocationOverflowError,
    DescmProblem,
    EvenPolynomialPotential,
    analytic_catalog,
    assemble_collocation_matrix,
    collocation_trace,
    optimal_mesh_size,
    parse_potential,
    solve,
    trace_minimized_mesh_size,
)
from conftest import random_potential
from oracles import (assemble_generalized_pair, fd_second_derivative, full_collocation_matrix,
                     parity_blocks_by_index, sinc_basis)

QUARTIC = EvenPolynomialPotential((1.0, 1.0))
V1 = analytic_catalog()[0].potential
EPS = np.finfo(float).eps
# the catalog, a deep double well with a near-degenerate lowest pair, and
# Chebyshev wells of five and ten minima
BLOCK_WELLS = [case.potential for case in analytic_catalog()] + [
    parse_potential(spec) for spec in ("poly:-20,1", "cheb:10;shift=-1", "cheb:20;shift=-1")
]
BLOCK_SIZES = (1, 2, 5, 13, 40, 100)


def block_cases():
    for p in BLOCK_WELLS:
        for n in BLOCK_SIZES:
            yield p, n, optimal_mesh_size(p, n)


def block_spectrum(matrix):
    return np.sort(np.concatenate([np.linalg.eigvalsh(matrix.even),
                                   np.linalg.eigvalsh(matrix.odd)]))


class TestEntries:
    def test_center_entry(self):
        center = assemble_collocation_matrix(QUARTIC, 1, 1.0).even[0, 0]
        assert center == pytest.approx(math.pi**2 / 3.0 - 0.5, rel=1e-15)
        assert center == pytest.approx(2.7898681336964524, rel=1e-14)

    def test_corner_entry_against_difference_oracle(self):
        # offset 2 between the points -h and +h; the scaled second
        # derivative there is recomputed from a five-point stencil
        h = 1.0
        corner = full_collocation_matrix(QUARTIC, 1, h).entries[0, 2]  # j = -1, k = +1
        weight = h * h * fd_second_derivative(lambda t: sinc_basis(-1, h, t), h, 5e-4)
        expected = -weight / (h * h * math.cosh(-h) * math.cosh(h))
        assert corner == pytest.approx(expected, abs=1e-7)
        assert corner == pytest.approx(0.5 / math.cosh(1.0) ** 2, rel=1e-14)
        assert corner == pytest.approx(0.20998717080701304, rel=1e-12)
        # the blocks hold A[1,1] + A[1,-1] and A[1,1] - A[1,-1]
        k = assemble_collocation_matrix(QUARTIC, 1, h)
        assert 0.5 * (k.even[1, 1] - k.odd[0, 0]) == pytest.approx(corner, rel=1e-14)

    def test_shape_and_mesh_recorded(self):
        k = assemble_collocation_matrix(QUARTIC, 7, 0.21)
        assert k.even.shape == (8, 8)
        assert k.odd.shape == (7, 7)
        # one buffer; its size is what the benchmark counts as assembled bytes
        assert k.entries.shape == (2, 8, 8)
        assert k.entries.nbytes == 8 * 2 * 8 * 8
        assert np.shares_memory(k.even, k.entries) and np.shares_memory(k.odd, k.entries)
        assert k.mesh == 0.21
        assert k.half_width == 7

    def test_symmetry_bit_for_bit(self, rng):
        for _ in range(10):
            p = random_potential(rng, with_constant=True)
            n = int(rng.integers(1, 20))
            h = float(rng.uniform(0.05, 1.0))
            k = assemble_collocation_matrix(p, n, h)
            assert np.array_equal(k.even, k.even.T)
            assert np.array_equal(k.odd, k.odd.T)
        # the blocks the solve path hands to LAPACK, which reads one triangle
        wells = [case.potential for case in analytic_catalog()]
        wells += [parse_potential("poly:-20,1"), parse_potential("cheb:20;shift=-1")]
        for p in wells:
            for n in (1, 13, 60, 150):
                for h in (optimal_mesh_size(p, n), trace_minimized_mesh_size(p, n)):
                    k = assemble_collocation_matrix(p, n, h)
                    assert np.array_equal(k.even, k.even.T), (p, n, h)
                    assert np.array_equal(k.odd, k.odd.T), (p, n, h)
        for p, n, h in block_cases():
            k = assemble_collocation_matrix(p, n, h)
            assert np.array_equal(k.even, k.even.T), (p, n, h)
            assert np.array_equal(k.odd, k.odd.T), (p, n, h)
        # fixed h far out: diagonal entries up to about 1e77
        k = assemble_collocation_matrix(QUARTIC, 30, 1.5)
        assert np.abs(k.entries).max() > 1e70
        assert np.array_equal(k.even, k.even.T)
        assert np.array_equal(k.odd, k.odd.T)

    def test_trace_matches_closed_form(self):
        k = assemble_collocation_matrix(V1, 12, 0.2)
        blocks = np.trace(k.even) + np.trace(k.odd)
        assert blocks == pytest.approx(collocation_trace(V1, 12, 0.2), rel=1e-12)

    def test_kinetic_block_is_toeplitz(self, rng):
        n, h = 8, 0.3
        p = random_potential(rng)
        k = full_collocation_matrix(p, n, h)
        c = np.cosh(np.arange(-n, n + 1) * h)
        scaled = k.entries * np.outer(c, c) * h * h
        for offset in range(1, 2 * n + 1):
            diag = np.diagonal(scaled, offset)
            assert np.all(np.abs(diag - diag[0]) <= 1e-13 * max(1.0, abs(diag[0])))

    def test_entries_immutable(self):
        k = assemble_collocation_matrix(QUARTIC, 2, 0.5)
        for array in (k.entries, k.even, k.odd):
            with pytest.raises(ValueError):
                array[0] = 1.0


class TestParityBlocks:
    def test_blocks_equal_the_index_fold_bit_for_bit(self):
        for p, n, h in block_cases():
            k = assemble_collocation_matrix(p, n, h)
            even, odd = parity_blocks_by_index(p, n, h)
            assert k.even.tobytes() == even.tobytes(), (p, n)
            assert k.odd.tobytes() == odd.tobytes(), (p, n)

    def test_blocks_fold_the_full_matrix(self):
        # E[j,k] = A[j,k] + A[j,-k] (times sqrt(2) in row and column 0) and
        # O[j,k] = A[j,k] - A[j,-k], up to the rounding of the fold itself
        for p, n, h in block_cases():
            a = full_collocation_matrix(p, n, h).entries
            right, left = a[n:, n:], a[n:, n::-1]
            even, odd = right + left, (right - left)[1:, 1:]
            even[0] /= math.sqrt(2.0)
            even[:, 0] /= math.sqrt(2.0)
            k = assemble_collocation_matrix(p, n, h)
            scale = np.abs(a).max()
            assert np.abs(k.even - even).max() <= 4 * EPS * scale, (p, n)
            assert np.abs(k.odd - odd).max() <= 4 * EPS * scale, (p, n)

    def test_lowest_levels_match_the_full_matrix(self):
        for p, n, h in block_cases():
            full = np.linalg.eigvalsh(full_collocation_matrix(p, n, h).entries)
            merged = block_spectrum(assemble_collocation_matrix(p, n, h))
            floor = EPS * np.abs(full).max()
            assert np.abs(merged[:10] - full[:10]).max() <= 8 * floor, (p, n)

    def test_unfolded_eigenvectors_are_orthonormal(self):
        for p in BLOCK_WELLS:
            for n in BLOCK_SIZES:
                result = solve(DescmProblem(p), n, want_vectors=True)
                vectors = result.eigenvectors
                assert vectors.shape == (2 * n + 1, 2 * n + 1)
                gram = vectors.T @ vectors
                assert np.abs(gram - np.eye(2 * n + 1)).max() <= 1e-13, (p, n)
                # exactly even or odd, as labelled
                assert np.array_equal(vectors[::-1] * result.parity, vectors), (p, n)

    def test_unfolded_eigenvectors_solve_the_full_matrix(self):
        for p in BLOCK_WELLS:
            for n in (5, 40):
                result = solve(DescmProblem(p), n, want_vectors=True)
                a = full_collocation_matrix(p, n, result.h_used).entries
                residual = a @ result.eigenvectors - result.eigenvectors * result.spectrum
                assert np.abs(residual).max() <= 1e3 * EPS * np.abs(a).max(), (p, n)


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
        k = full_collocation_matrix(V1, n, h)
        scale = np.abs(k.entries).max()
        assert np.abs(conjugated - k.entries).max() <= 1e-14 * scale

    def test_generalized_eigenvalues_match_reduced(self):
        # 5x5 case: spectrum of the reduced matrix equals the spectrum of
        # the explicitly conjugated pair
        n, h = 2, 0.6
        stiffness, diag = assemble_generalized_pair(QUARTIC, n, h)
        c = np.sqrt(diag)
        generalized = np.linalg.eigvalsh(stiffness / np.outer(c, c))
        reduced = block_spectrum(assemble_collocation_matrix(QUARTIC, n, h))
        assert np.abs(generalized - reduced).max() <= 1e-10


class TestShiftedPositiveDefiniteness:
    def test_catalog_matrices_bounded_below(self):
        for case in analytic_catalog():
            n = 10
            h = optimal_mesh_size(case.potential, n)
            k = assemble_collocation_matrix(case.potential, n, h)
            smallest = block_spectrum(k)[0]
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
        # cosh(690)^2 overflows the kinetic denominator and V the diagonal;
        # beyond |kh| = 710 cosh itself overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n, h in ((300, 2.3), (100, 10.0), (1, 710.2), (1, 710.5), (1000, 0.711)):
                with pytest.raises(CollocationOverflowError):
                    assemble_collocation_matrix(QUARTIC, n, h)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            assemble_collocation_matrix(QUARTIC, 0, 0.1)
        for h in (-0.1, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                assemble_collocation_matrix(QUARTIC, 3, h)
