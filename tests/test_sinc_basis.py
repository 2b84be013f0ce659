import math

import numpy as np
import pytest

from descm import SincWeights
from descm.solver import sinc
from oracles import d2_weights, fd_second_derivative, gathered_d2_weights, sinc_basis


class TestSinc:
    """``descm.solver.sinc``, the cardinal function that wavefunction
    reconstruction evaluates; the traced benchmark run wraps it by that name."""

    def test_removable_singularity(self):
        assert sinc(0.0) == 1.0

    def test_zero_at_nonzero_integers(self):
        for z in (1.0, -1.0, 2.0, 7.0, -13.0):
            assert abs(sinc(z)) <= 1e-15

    def test_half(self):
        assert sinc(0.5) == pytest.approx(2.0 / math.pi, rel=1e-15)
        assert sinc(0.5) == pytest.approx(0.6366197723675814, rel=1e-15)

    def test_even(self, rng):
        zs = rng.uniform(-5.0, 5.0, size=200)
        assert np.array_equal(sinc(zs), sinc(-zs))

    def test_array_input(self):
        out = sinc(np.array([0.0, 0.5, 1.0]))
        assert out.shape == (3,)
        assert out[0] == 1.0


class TestSincBasisEval:
    """The shifted basis the finite-difference oracles differentiate."""

    def test_unity_at_own_node(self):
        assert sinc_basis(3, 0.5, 1.5) == 1.0

    def test_zero_at_other_nodes(self):
        assert abs(sinc_basis(0, 1.0, 4.0)) <= 1e-15

    def test_half_offset(self):
        assert sinc_basis(1, 0.25, 0.375) == pytest.approx(2.0 / math.pi, rel=1e-15)

    def test_discrete_orthogonality(self):
        h = 0.3
        for j in range(-4, 5):
            for k in range(-4, 5):
                expected = 1.0 if j == k else 0.0
                assert sinc_basis(j, h, k * h) == pytest.approx(expected, abs=1e-14)


class TestSecondDerivativeWeight:
    def test_diagonal_value(self):
        w = d2_weights(3)
        assert w[0] == -(math.pi**2) / 3.0
        assert w[0] == pytest.approx(-3.2898681336964524, rel=1e-15)

    def test_adjacent_offsets(self):
        # -2 (-1)^1 / 1^2 and -2 (+1) / 2^2, confirmed by the difference oracle below
        w = d2_weights(3)
        assert w[1] == 2.0
        assert w[2] == -0.5

    def test_even_in_offset(self):
        w = d2_weights(12)
        for r in range(0, 25):
            assert w[r] == w[-r]

    @pytest.mark.parametrize("h", [0.1, 0.5, 1.0])
    def test_matches_finite_differences(self, h):
        j = 3
        step = 5e-4 * h
        w = d2_weights(10)
        for r in range(-10, 11):
            x = (j + r) * h
            numeric = h * h * fd_second_derivative(lambda t: sinc_basis(j, h, t), x, step)
            assert abs(numeric - w[r]) <= 1e-6

    def test_partial_sums_bracket(self):
        diag = -(math.pi**2) / 3.0
        w = d2_weights(25)
        for radius in range(1, 51):
            total = sum(w[r] for r in range(-radius, radius + 1))
            lower = diag - 4.0 * sum(1.0 / r**2 for r in range(1, radius + 1))
            assert lower <= total <= diag + 4.0


class TestSincWeights:
    def test_second_derivative_matches_scalar(self):
        # the published closed form, one offset at a time
        n = 6
        w = d2_weights(n)
        for r in range(-2 * n, 2 * n + 1):
            scalar = -(math.pi**2) / 3.0 if r == 0 else -2.0 * (-1.0) ** r / (r * r)
            assert w[r] == scalar

    def test_offset_matrix_symmetric(self):
        m = SincWeights.second_derivative(5).offset_matrix()
        assert m.shape == (11, 11)
        assert np.array_equal(m, m.T)

    def test_values_immutable(self):
        w = SincWeights.second_derivative(2)
        with pytest.raises(ValueError):
            w.values[0] = 0.0

    def test_offset_matrix_immutable(self):
        m = SincWeights.second_derivative(2).offset_matrix()
        with pytest.raises(ValueError):
            m[0, 0] = 0.0

    @pytest.mark.parametrize("order", ["down-up", "up-down"])
    def test_table_slices_match_gathered_oracle(self, order):
        # values and the strided Toeplitz view must equal the per-truncation
        # build and index gather bit for bit, at every N in either order
        down, up = list(range(80, -1, -1)), list(range(81))
        for n in down + up if order == "down-up" else up + down:
            w = SincWeights.second_derivative(n)
            m = w.offset_matrix()
            values, matrix = gathered_d2_weights(n)
            assert w.half_width == n
            assert w.values.tobytes() == values.tobytes()
            assert m.shape == matrix.shape
            assert m.tobytes() == matrix.tobytes()
            assert not w.values.flags.writeable and not m.flags.writeable
            assert np.shares_memory(m, w.values)

    @pytest.mark.parametrize("n", [-1, -2, -40])
    def test_negative_half_width_rejected(self, n):
        with pytest.raises(ValueError, match="half-width must be >= 0"):
            SincWeights.second_derivative(n)
