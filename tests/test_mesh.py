import math
import warnings

import mpmath
import numpy as np
import pytest

from descm import (
    DescmProblem,
    EvenPolynomialPotential,
    MeshStrategy,
    analytic_catalog,
    assemble_collocation_matrix,
    chebyshev_well,
    collocation_trace,
    lambert_w0,
    mesh_size_for,
    optimal_mesh_size,
    parse_potential,
    solve,
    trace_minimized_mesh_size,
)
from descm import mesh
from descm.mesh import _FIRST_WINDOW, _RESOLUTION
from conftest import random_potential
from oracles import full_grid_collocation_trace, golden_section_mesh_size

QUARTIC = EvenPolynomialPotential((1.0, 1.0))
TRIPLE_WELL = EvenPolynomialPotential((4.0, -6.0, 1.0))

# valid inputs whose trace minimum lies outside the first scan window
BEYOND_FIRST_WINDOW = [
    ("poly:1e10,1e10", 100),
    ("poly:1e8,1e8", 400),
    ("cheb:40;shift=-1", 1000),
    ("poly:1e-6", 1),
    ("poly:-1e4,1", 1),
]


def bisect_lambert(z, lo=0.0, hi=None, tol=1e-14):
    """Solve w e^w = z by bisection; independent of the Halley route."""
    if hi is None:
        hi = 1.0
        while hi * math.exp(hi) < z:
            hi *= 2.0
    while hi - lo > tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(mid) < z:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestLambertW:
    def test_zero(self):
        assert lambert_w0(0.0) == 0.0

    def test_at_e(self):
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-14)

    def test_at_one(self):
        assert lambert_w0(1.0) == pytest.approx(0.567143290409784, abs=1e-14)
        assert lambert_w0(1.0) == pytest.approx(bisect_lambert(1.0), abs=1e-13)

    def test_matches_bisection(self):
        for z in (0.01, 0.5, 2.0, 10.0, 1e4, 1e8):
            assert lambert_w0(z) == pytest.approx(bisect_lambert(z), rel=1e-12)

    def test_round_trip_residual(self):
        for z in np.logspace(-8, 8, 1000):
            w = lambert_w0(float(z))
            assert abs(w * math.exp(w) - z) <= 1e-13 * max(1.0, z)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            lambert_w0(-0.1)


class TestOptimalMeshSize:
    def test_quartic_at_seventeen(self):
        # m = 2, leading coefficient 1: W(2^2 pi^2 * 3 * 17) / (3 * 17)
        expected = bisect_lambert(204.0 * math.pi**2) / 51.0
        got = optimal_mesh_size(QUARTIC, 17)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.11455750052658141, rel=1e-12)

    def test_defining_identity(self, rng):
        for _ in range(20):
            p = random_potential(rng)
            n = int(rng.integers(1, 200))
            m = p.degree_parameter
            h = optimal_mesh_size(p, n)
            w = h * (m + 1) * n
            arg = 2.0**m * math.pi**2 * (m + 1) * n / math.sqrt(p.leading_coefficient)
            assert w * math.exp(w) == pytest.approx(arg, rel=1e-12)

    def test_ignores_inner_coefficients_and_constant(self):
        a = EvenPolynomialPotential((1.0, -4.0, 2.0))
        b = EvenPolynomialPotential((9.0, 7.0, 2.0), constant=5.0)
        assert optimal_mesh_size(a, 11) == optimal_mesh_size(b, 11)

    def test_decreasing_in_truncation(self):
        hs = [optimal_mesh_size(QUARTIC, n) for n in range(1, 101)]
        assert all(a > b for a, b in zip(hs, hs[1:]))

    def test_decreasing_in_leading_coefficient(self):
        strong = EvenPolynomialPotential((1.0, 4.0))
        weak = EvenPolynomialPotential((1.0, 1.0))
        assert optimal_mesh_size(strong, 10) < optimal_mesh_size(weak, 10)

    @pytest.mark.parametrize(
        "m,n,leading",
        [(1100, 5, 1.0), (1024, 1, 1.0), (600, 5, 1e-300), (2000, 1000, 1e300)],
    )
    def test_overflowing_argument_matches_mpmath(self, m, n, leading):
        # 2.0**m overflows for m >= 1024, the product for a tiny leading coefficient
        potential = EvenPolynomialPotential((0.0,) * (m - 1) + (leading,))
        with mpmath.workdps(40):
            log_z = (m * mpmath.log(2) + mpmath.log(mpmath.pi**2 * (m + 1) * n)
                     - mpmath.log(mpmath.mpf(leading)) / 2)
            exact = float(mpmath.lambertw(mpmath.exp(log_z)).real)
        w = optimal_mesh_size(potential, n) * (m + 1) * n
        assert w == pytest.approx(exact, rel=1e-13)

    def test_rejects_bad_truncation(self):
        with pytest.raises(ValueError):
            optimal_mesh_size(QUARTIC, 0)


class TestTrace:
    def test_single_point(self):
        # N = 0 keeps only the center: pi^2/(3h^2) - 1/2 for the quartic well
        for h in (0.2, 0.7, 1.0):
            expected = math.pi**2 / (3.0 * h * h) - 0.5
            assert collocation_trace(QUARTIC, 0, h) == pytest.approx(expected, rel=1e-14)

    def test_matches_assembled_trace(self, rng):
        # the same diagonal in the same summation order as np.trace
        for _ in range(200):
            p = random_potential(rng, with_constant=True)
            n = int(rng.integers(1, 40))
            h = float(rng.uniform(0.02, 1.5))
            assert collocation_trace(p, n, h) == assemble_collocation_matrix(p, n, h).trace()

    def test_triple_well_case(self):
        closed = collocation_trace(TRIPLE_WELL, 20, 0.2)
        assembled = assemble_collocation_matrix(TRIPLE_WELL, 20, 0.2).trace()
        assert closed == pytest.approx(assembled, rel=1e-9)

    def test_diverges_at_both_ends(self):
        mid = collocation_trace(QUARTIC, 5, 0.3)
        assert collocation_trace(QUARTIC, 5, 1e-4) > mid
        assert collocation_trace(QUARTIC, 5, 50.0) > mid

    def test_rejects_bad_mesh(self):
        with pytest.raises(ValueError):
            collocation_trace(QUARTIC, 3, 0.0)

    @pytest.mark.parametrize("n", [0, 1, 7, 40])
    def test_array_of_mesh_sizes_matches_scalar_calls_bit_for_bit(self, n):
        # h = 40 and 800 put points where cosh^2 and V(sinh t) overflow to inf
        hs = np.array([[1e-3, 0.05, 0.3], [1.0, 40.0, 800.0]])
        for potential in (QUARTIC, TRIPLE_WELL, chebyshev_well(20, -1.0)):
            traces = collocation_trace(potential, n, hs)
            assert traces.shape == hs.shape
            scalar = [collocation_trace(potential, n, float(h)) for h in hs.ravel()]
            assert traces.ravel().tobytes() == np.array(scalar).tobytes()

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 13, 60, 150])
    def test_half_grid_mirror_matches_full_grid_bit_for_bit(self, n, rng):
        potentials = [QUARTIC, TRIPLE_WELL, chebyshev_well(40, -1.0)]
        potentials += [random_potential(rng, with_constant=True) for _ in range(5)]
        hs = np.exp(rng.uniform(math.log(1e-3), math.log(800.0), size=(4, 8)))
        # far grids: cosh^2, V(sinh t) and the sum itself overflow to inf
        hs[-1, -3:] = (355.3, 400.0, 800.0)
        for p in potentials:
            for h in (float(hs[0, 0]), 355.3, hs[0], hs):
                got = collocation_trace(p, n, h)
                want = full_grid_collocation_trace(p, n, h)
                assert type(got) is type(want)
                assert np.shape(got) == np.shape(want)
                assert np.array_equal(got, want)
        assert n == 0 or np.isinf(collocation_trace(QUARTIC, n, hs)).any()

    def test_overflowing_sum_is_inf_without_warnings(self):
        # both outer points are finite, just below the float maximum; only
        # their sum overflows
        potential = parse_potential("poly:1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert collocation_trace(potential, 1, 355.3) == math.inf


class TestTraceMinimized:
    def test_below_closed_form_trace(self):
        h_hat = trace_minimized_mesh_size(QUARTIC, 10)
        h_opt = optimal_mesh_size(QUARTIC, 10)
        assert collocation_trace(QUARTIC, 10, h_hat) <= collocation_trace(QUARTIC, 10, h_opt)

    def test_locally_flat(self):
        for n in (1, 5, 20):
            h_hat = trace_minimized_mesh_size(TRIPLE_WELL, n)
            at_min = collocation_trace(TRIPLE_WELL, n, h_hat)
            for factor in (1.0 - _RESOLUTION, 1.0 + _RESOLUTION):
                nearby = collocation_trace(TRIPLE_WELL, n, h_hat * factor)
                assert nearby >= at_min - 1e-8 * abs(at_min)

    @pytest.mark.parametrize(
        "potential,n",
        [(QUARTIC, 10), (TRIPLE_WELL, 20), (chebyshev_well(10, -1.0), 15)],
    )
    def test_matches_dense_scan(self, potential, n):
        lo, hi = _FIRST_WINDOW
        grid = np.exp(np.linspace(math.log(lo), math.log(hi), 1000))
        traces = [collocation_trace(potential, n, float(h)) for h in grid]
        dense_best = grid[int(np.argmin(traces))]
        h_hat = trace_minimized_mesh_size(potential, n)
        cell = math.log(hi / lo) / 999
        assert abs(math.log(h_hat / dense_best)) <= 2 * cell

    def test_endpoints_strictly_larger(self):
        lo, hi = _FIRST_WINDOW
        for potential in (QUARTIC, TRIPLE_WELL):
            for n in (1, 2, 5, 20):
                h_hat = trace_minimized_mesh_size(potential, n)
                at_min = collocation_trace(potential, n, h_hat)
                assert collocation_trace(potential, n, lo) > at_min
                assert collocation_trace(potential, n, hi) > at_min

    def test_deterministic(self):
        a = trace_minimized_mesh_size(TRIPLE_WELL, 20)
        b = trace_minimized_mesh_size(TRIPLE_WELL, 20)
        assert a == b

    def test_first_scan_is_the_log_spaced_first_window(self, monkeypatch):
        grids = []

        def record(potential, n, h):
            grids.append(np.array(h, copy=True))
            return collocation_trace(potential, n, h)

        monkeypatch.setattr(mesh, "collocation_trace", record)
        trace_minimized_mesh_size(TRIPLE_WELL, 20)
        expected = np.exp(np.linspace(math.log(1e-3), math.log(5.0), 64))
        assert grids[0].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("spec,n", BEYOND_FIRST_WINDOW)
    def test_minimum_beyond_first_window_matches_dense_scan(self, spec, n):
        potential = parse_potential(spec)
        lo, hi = _FIRST_WINDOW
        first_grid = np.exp(np.linspace(math.log(lo), math.log(hi), 64))
        assert int(np.argmin(collocation_trace(potential, n, first_grid))) in (0, 63)
        h_hat = trace_minimized_mesh_size(potential, n)
        grid = np.exp(np.linspace(math.log(h_hat / 10), math.log(10 * h_hat), 1000))
        dense_best = grid[int(np.argmin(collocation_trace(potential, n, grid)))]
        cell = math.log(100.0) / 999
        assert abs(math.log(h_hat / dense_best)) <= 2 * cell

    def test_minimum_beyond_first_window_gives_converged_energy(self):
        potential = parse_potential("poly:1e10,1e10")
        trace_min = DescmProblem(potential, strategy=MeshStrategy.trace_minimized())
        energy = float(solve(trace_min, 100).spectrum[0])
        reference = float(solve(DescmProblem(potential), 300).spectrum[0])
        assert abs(energy - reference) <= 1e-10 * abs(reference)

    @pytest.mark.parametrize("n", [1, 100])
    @pytest.mark.parametrize(
        "spec", ["poly:1e308", "poly:1e-300", "poly:" + "0," * 9 + "1e308"]
    )
    def test_extreme_wells_give_finite_mesh_without_warnings(self, spec, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = trace_minimized_mesh_size(parse_potential(spec), n)
        assert 0.0 < h < math.inf

    @pytest.mark.parametrize(
        "potential",
        [pytest.param(case.potential, id=case.name) for case in analytic_catalog()]
        + [
            pytest.param(EvenPolynomialPotential((-20.0, 1.0)), id="poly:-20,1"),
            pytest.param(chebyshev_well(10, -1.0), id="cheb:10;shift=-1"),
            pytest.param(chebyshev_well(20, -1.0), id="cheb:20;shift=-1"),
            pytest.param(chebyshev_well(40, -1.0), id="cheb:40;shift=-1"),
        ],
    )
    def test_trace_no_worse_than_golden_section(self, potential):
        eps = np.finfo(float).eps
        for n in (1, 2, 5, 10, 20, 50, 100):
            oracle = collocation_trace(potential, n, golden_section_mesh_size(potential, n))
            got = collocation_trace(potential, n, trace_minimized_mesh_size(potential, n))
            assert got <= oracle + 4 * eps * abs(oracle), n

    def test_finds_lower_trace_than_golden_section_on_a_rough_well(self):
        # at N=1 the trace of cheb:20;shift=-1 has more than one dip inside the
        # scan's best triple, which golden section does not resolve
        potential = chebyshev_well(20, -1.0)
        oracle = collocation_trace(potential, 1, golden_section_mesh_size(potential, 1))
        got = collocation_trace(potential, 1, trace_minimized_mesh_size(potential, 1))
        assert got < oracle

    @pytest.mark.parametrize("n", [1, 100, 1000])
    @pytest.mark.parametrize(
        "spec", ["poly:1,1", "cheb:40;shift=-1", "poly:1e10,1e10", "poly:1e308", "poly:1e-300"]
    )
    def test_refinement_ends_within_sixteen_trace_calls(self, monkeypatch, spec, n):
        # each refinement pass narrows the triple about 31-fold, and a 1e-10
        # relative width still spans about a million ulp, so every pass shrinks
        calls = []

        def counted(potential, half_width, h):
            calls.append(h)
            return collocation_trace(potential, half_width, h)

        monkeypatch.setattr(mesh, "collocation_trace", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = trace_minimized_mesh_size(parse_potential(spec), n)
        assert len(calls) <= 16
        assert 0.0 < h < math.inf

    def test_rejects_bad_truncation(self):
        with pytest.raises(ValueError):
            trace_minimized_mesh_size(QUARTIC, 0)


class TestMeshStrategy:
    def test_dispatch(self):
        assert mesh_size_for(QUARTIC, 12, MeshStrategy.optimal()) == optimal_mesh_size(QUARTIC, 12)
        assert mesh_size_for(QUARTIC, 12, MeshStrategy.fixed(0.25)) == 0.25
        assert mesh_size_for(QUARTIC, 12, MeshStrategy.trace_minimized()) == pytest.approx(
            trace_minimized_mesh_size(QUARTIC, 12), rel=1e-12
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            MeshStrategy(kind="magic")
        with pytest.raises(ValueError):
            MeshStrategy.fixed(-1.0)
        with pytest.raises(ValueError):
            MeshStrategy(kind="optimal", fixed_h=0.5)

    @pytest.mark.parametrize("h", [math.nan, math.inf])
    def test_validation_rejects_non_finite_fixed_mesh(self, h):
        with pytest.raises(ValueError):
            MeshStrategy.fixed(h)
