import warnings

import numpy as np
import pytest

from descm import MeshStrategy, analytic_catalog, assemble_collocation_matrix, parse_potential
from descm.mesh import mesh_size_for
from descm.solver import eigen_symmetric
from oracles import characteristic_roots_by_bisection

# the catalog, a deep double well with a near-degenerate lowest pair, and a
# Chebyshev well of ten minima
WELLS = [case.potential for case in analytic_catalog()] + [
    parse_potential(spec) for spec in ("poly:-20,1", "cheb:20;shift=-1")
]
STRATEGIES = (MeshStrategy.optimal(), MeshStrategy.trace_minimized())


def solve_blocks(p, n, strategy):
    """Every block ``solve`` hands the eigensolver at N = n: each parity of a
    two-slab assembly and of a one-slab one, the odd block a strided view."""
    h = mesh_size_for(p, n, strategy)
    for parity in (None, 1, -1):
        matrix = assemble_collocation_matrix(p, n, h, parity)
        for block_parity in matrix.parities:
            yield matrix.block(block_parity)


def same_bits(got, expected):
    return got.dtype == expected.dtype and got.shape == expected.shape and (
        got.tobytes() == expected.tobytes())


def outcome(eigensolve, matrix):
    """The arrays of one call, or the text of the LinAlgError it raised."""
    try:
        return eigensolve(matrix)
    except np.linalg.LinAlgError as exc:
        return str(exc)


def numpy_values(matrix):
    return (np.linalg.eigvalsh(matrix),)


def numpy_pair(matrix):
    return tuple(np.linalg.eigh(matrix))


def our_values(matrix):
    values, vectors = eigen_symmetric(matrix)
    assert vectors is None
    return (values,)


def our_pair(matrix):
    return eigen_symmetric(matrix, want_vectors=True)


def assert_same_outcome(got, expected, context=None):
    """Both raised the same error, or returned the same arrays bit for bit."""
    assert type(got) is type(expected), context
    if isinstance(expected, str):
        assert got == expected, context
    else:
        assert len(got) == len(expected), context
        assert all(same_bits(g, e) for g, e in zip(got, expected)), context


class TestEigenSymmetric:
    def test_identity(self):
        values, _ = eigen_symmetric(np.eye(5))
        assert values == pytest.approx([1.0] * 5, abs=1e-15)

    def test_two_by_two(self):
        values, _ = eigen_symmetric(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert values == pytest.approx([1.0, 3.0], abs=1e-14)

    def test_against_determinant_bisection(self, rng):
        a = rng.uniform(-1.0, 1.0, size=(6, 6))
        a = a + a.T
        expected = characteristic_roots_by_bisection(a)
        assert expected.shape == (6,)
        got, _ = eigen_symmetric(a)
        assert np.abs(got - expected).max() <= 1e-9

    def test_ascending(self, rng):
        a = rng.normal(size=(30, 30))
        a = a + a.T
        values, _ = eigen_symmetric(a)
        assert np.all(np.diff(values) >= 0.0)

    def test_trace_identity(self, rng):
        for n in (5, 20, 50):
            a = rng.normal(size=(n, n))
            a = a + a.T
            values, _ = eigen_symmetric(a)
            assert values.sum() == pytest.approx(np.trace(a), rel=1e-12)

    def test_frobenius_identity(self, rng):
        for n in (5, 20, 50):
            a = rng.normal(size=(n, n))
            a = a + a.T
            values, _ = eigen_symmetric(a)
            assert (values**2).sum() == pytest.approx((a**2).sum(), rel=1e-11)

    def test_permutation_stability(self, rng):
        # a symmetric relabeling must not move the spectrum beyond solver
        # accuracy (bit-identical output is not attainable in floating point)
        a = rng.normal(size=(25, 25))
        a = a + a.T
        perm = rng.permutation(25)
        p = np.eye(25)[perm]
        base, _ = eigen_symmetric(a)
        relabeled, _ = eigen_symmetric(p @ a @ p.T)
        scale = np.linalg.norm(a)
        assert np.abs(base - relabeled).max() <= 1e-12 * scale

    def test_deterministic(self, rng):
        a = rng.normal(size=(12, 12))
        a = a + a.T
        assert np.array_equal(eigen_symmetric(a)[0], eigen_symmetric(a)[0])

    def test_eigenvector_residuals(self, rng):
        a = rng.normal(size=(40, 40))
        a = a + a.T
        values, vectors = eigen_symmetric(a, want_vectors=True)
        fro = np.linalg.norm(a)
        for i in range(40):
            v = vectors[:, i]
            assert np.linalg.norm(a @ v - values[i] * v) <= 1e-10 * fro
        gram = vectors.T @ vectors
        assert np.abs(gram - np.eye(40)).max() <= 1e-12

    def test_vectors_absent_by_default(self, rng):
        a = rng.normal(size=(4, 4))
        a = a + a.T
        assert eigen_symmetric(a)[1] is None

    def test_tolerates_roundoff_asymmetry(self):
        a = np.array([[1.0, 2.0], [2.0 + 1e-15, 1.0]])
        values, _ = eigen_symmetric(a)
        assert values == pytest.approx([-1.0, 3.0], abs=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eigen_symmetric(np.zeros((3, 4)))

    def test_rejects_one_dimensional(self):
        with pytest.raises(ValueError):
            eigen_symmetric(np.ones(3))
        with pytest.raises(ValueError):
            eigen_symmetric(np.ones(3), want_vectors=True)


class TestNumpyBits:
    """The gufunc call returns np.linalg.eigvalsh's and eigh's bits, and
    raises their LinAlgError, on every input here."""

    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.kind)
    def test_solve_blocks(self, strategy):
        for p in WELLS:
            for n in range(1, 61):
                for block in solve_blocks(p, n, strategy):
                    assert_same_outcome(our_values(block), numpy_values(block), (p, n))
                    assert_same_outcome(our_pair(block), numpy_pair(block), (p, n))

    def test_odd_block_is_a_strided_view(self):
        block = next(b for b in solve_blocks(WELLS[0], 5, STRATEGIES[0]) if len(b) == 5)
        assert not block.flags.c_contiguous and not block.flags.f_contiguous

    def test_seeded_symmetric_matrices(self, rng):
        for n in list(range(1, 41)) + [64, 101]:
            a = rng.normal(size=(n, n)) * 10.0 ** rng.integers(-8, 9)
            a = a + a.T
            for matrix in (a, np.asfortranarray(a), a[::-1, ::-1]):
                assert_same_outcome(our_values(matrix), numpy_values(matrix))
                assert_same_outcome(our_pair(matrix), numpy_pair(matrix))

    @pytest.mark.parametrize("parity", [1, -1])
    def test_nan_on_the_diagonal_does_not_converge(self, parity):
        block = assemble_collocation_matrix(WELLS[0], 10, 0.3, parity).block(parity).copy()
        block[4, 4] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
            eigen_symmetric(block)
        assert outcome(numpy_values, block) == "Eigenvalues did not converge"

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    @pytest.mark.parametrize("parity", [1, -1])
    def test_infinite_diagonal_entry_gives_nan_without_warning(self, parity, value):
        block = assemble_collocation_matrix(WELLS[0], 10, 0.3, parity).block(parity).copy()
        block[-1, -1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values, _ = eigen_symmetric(block)
        assert np.isnan(values).all()
        assert same_bits(values, np.linalg.eigvalsh(block))

    def test_non_finite_entries_anywhere(self, rng):
        # LAPACK may raise, return NaN or return finite values, by where the
        # entry sits; the call does what numpy does in every case
        for n in (1, 2, 3, 4, 10):
            a = rng.normal(size=(n, n))
            a = a + a.T
            for value in (np.nan, np.inf, -np.inf):
                for i, j in {(0, 0), (n - 1, n - 1), (n - 1, 0), (0, n - 1)}:
                    b = a.copy()
                    b[i, j] = value
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        context = (n, value, i, j)
                        assert_same_outcome(outcome(our_values, b), outcome(numpy_values, b),
                                            context)
                        assert_same_outcome(outcome(our_pair, b), outcome(numpy_pair, b), context)
