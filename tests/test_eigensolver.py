import numpy as np
import pytest

from descm.solver import eigen_symmetric
from oracles import characteristic_roots_by_bisection


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
