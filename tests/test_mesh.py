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
    optimal_mesh_size,
    parse_potential,
    solve,
    trace_minimized_mesh_size,
)
from descm import CollocationOverflowError, mesh, solver
from descm.mesh import (
    _FIRST_GRID, _FIRST_WINDOW, _best_trace, _half_diagonal, _interpolated_zero, mesh_size_for,
)
from conftest import MINUS_INF_RISE, MULTIWELL_SPECS, random_potential, run_in_threads
import oracles
from oracles import (_RESOLUTION, collocation_trace_slope, full_collocation_matrix,
                     full_grid_collocation_trace, golden_section_mesh_size,
                     lockstep_trace_minimized_mesh_size)

QUARTIC = EvenPolynomialPotential((1.0, 1.0))
TRIPLE_WELL = EvenPolynomialPotential((4.0, -6.0, 1.0))

SLOPE_WELLS = [
    pytest.param(case.potential, id=case.name) for case in analytic_catalog()
] + [
    pytest.param(EvenPolynomialPotential((-20.0, 1.0)), id="poly:-20,1"),
    pytest.param(chebyshev_well(10, -1.0), id="cheb:10;shift=-1"),
    pytest.param(chebyshev_well(20, -1.0), id="cheb:20;shift=-1"),
    pytest.param(chebyshev_well(40, -1.0), id="cheb:40;shift=-1"),
]
# The search places the slope's zero to _RESOLUTION relative on the smooth
# wells (measured: 1.3e-13 at worst) and to half of _POLISH on cheb:20 and
# cheb:40 (measured: 9.7e-10 for cheb:40 at N = 1). Within about _POLISH of
# the zero, neighbouring traces differ by a few ulp of rounding alone.
_POLISH = 32 * _RESOLUTION
SLOPE_ZERO_TOLERANCES = (
    [pytest.param(p.values[0], _RESOLUTION, id=p.id) for p in SLOPE_WELLS[:-2]]
    + [pytest.param(p.values[0], _POLISH / 2, id=p.id) for p in SLOPE_WELLS[-2:]]
)


def slope_zero_by_bisection(potential, n, h):
    """The zero of Tr' next to h, by bisection on scalar slope calls until the
    bracket stops shrinking; independent of the search's interpolation."""
    a, b = h * (1.0 - 1e-4), h * (1.0 + 1e-4)
    assert collocation_trace_slope(potential, n, a) < 0.0 < collocation_trace_slope(potential, n, b)
    while True:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            return mid
        if collocation_trace_slope(potential, n, mid) < 0.0:
            a = mid
        else:
            b = mid


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

    def test_rejects_nan(self):
        # NaN fails every comparison, so a z < 0 test alone lets it through,
        # and Halley steps from its NaN seed return NaN
        with pytest.raises(ValueError, match="got nan"):
            lambert_w0(math.nan)

    def test_infinity(self):
        # the seed log z - log log z is inf - inf there, and Halley steps from
        # a NaN stay NaN; W grows without bound
        assert lambert_w0(math.inf) == math.inf

    def test_within_64_ulp_of_mpmath_below_and_above_one(self):
        # the stop is relative, |w e^w - z| <= 1e-14 z, so w ~ z below 1 is
        # as accurate as above; an absolute stop was 2.5e8 ulp off at 1e-150.
        # The rule allows about 64 ulp just below z = 2^-46, where the log1p
        # seed alone passes it (63.0 at the worst of these points)
        rng = np.random.default_rng(0x1A3B)
        zs = np.concatenate([np.exp(rng.uniform(math.log(1e-150), math.log(1e300), 1500)),
                             np.exp(rng.uniform(math.log(1e-3), math.log(10.0), 500))])
        with mpmath.workdps(40):
            for z in zs.tolist():
                exact = float(mpmath.lambertw(z).real)
                assert abs(lambert_w0(z) - exact) <= 64 * math.ulp(exact), z


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

    def test_argument_below_one_matches_mpmath(self):
        # poly:1e18 at N = 2: the argument 2 pi^2 * 2 * 2 / 1e9 is 7.9e-8
        with mpmath.workdps(40):
            exact = float(mpmath.lambertw(8 * mpmath.pi**2 / mpmath.mpf(10) ** 9).real / 4)
        h = optimal_mesh_size(EvenPolynomialPotential((1e18,)), 2)
        assert abs(h - exact) <= 4 * math.ulp(exact)

    def test_rejects_bad_truncation(self):
        with pytest.raises(ValueError):
            optimal_mesh_size(QUARTIC, 0)


class TestTrace:
    def test_three_points(self):
        # N = 1: the center adds pi^2/(3h^2) - 1/2 for the quartic well, and
        # each of +-h adds pi^2/(3h^2 cosh^2 h) + sech^2 h/4 - 3 sech^4 h/4 + V(sinh h)
        for h in (0.2, 0.7, 1.0):
            sech2 = 1.0 / math.cosh(h) ** 2
            s2 = math.sinh(h) ** 2
            side = math.pi**2 / (3.0 * h * h) * sech2 + 0.25 * sech2 - 0.75 * sech2**2 + s2 + s2**2
            expected = math.pi**2 / (3.0 * h * h) - 0.5 + 2.0 * side
            assert collocation_trace(QUARTIC, 1, h) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_half_width_below_one(self, n):
        # before any point is evaluated, with the message every layer shares
        with pytest.raises(ValueError, match="truncation half-width must be >= 1"):
            collocation_trace(QUARTIC, n, np.array([0.1, 0.2]))

    def test_matches_full_matrix_trace(self, rng):
        # the same diagonal in the same summation order as np.trace
        for _ in range(200):
            p = random_potential(rng, with_constant=True)
            n = int(rng.integers(1, 40))
            h = float(rng.uniform(0.02, 1.5))
            assert collocation_trace(p, n, h) == full_collocation_matrix(p, n, h).trace()

    def test_triple_well_case(self):
        closed = collocation_trace(TRIPLE_WELL, 20, 0.2)
        k = assemble_collocation_matrix(TRIPLE_WELL, 20, 0.2)
        assert closed == pytest.approx(np.trace(k.even) + np.trace(k.odd), rel=1e-9)

    def test_diverges_at_both_ends(self):
        mid = collocation_trace(QUARTIC, 5, 0.3)
        assert collocation_trace(QUARTIC, 5, 1e-4) > mid
        assert collocation_trace(QUARTIC, 5, 50.0) > mid

    def test_rejects_bad_mesh(self):
        with pytest.raises(ValueError):
            collocation_trace(QUARTIC, 3, 0.0)

    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_array_of_mesh_sizes_matches_scalar_calls_bit_for_bit(self, n):
        # h = 40 and 800 put points where cosh^2 and V(sinh t) overflow to inf
        hs = np.array([[1e-3, 0.05, 0.3], [1.0, 40.0, 800.0]])
        for potential in (QUARTIC, TRIPLE_WELL, chebyshev_well(20, -1.0)):
            traces = collocation_trace(potential, n, hs)
            assert traces.shape == hs.shape
            scalar = [collocation_trace(potential, n, float(h)) for h in hs.ravel()]
            assert traces.ravel().tobytes() == np.array(scalar).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 5, 13, 60, 150])
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
        assert np.isinf(collocation_trace(QUARTIC, n, hs)).any()

    def test_half_diagonal_equals_full_matrix_diagonal_element_by_element(self, rng):
        # the trace sums this row mirrored; it must be the full matrix's
        # diagonal entry for entry, not only in sum
        for _ in range(100):
            p = random_potential(rng, with_constant=True)
            n = int(rng.integers(1, 40))
            hs = rng.uniform(0.02, 1.5, size=3)
            with np.errstate(over="ignore"):
                rows = _half_diagonal(p, n, hs)
            for h, row in zip(hs, rows):
                diagonal = np.diagonal(full_collocation_matrix(p, n, float(h)).entries)
                assert row.tobytes() == diagonal[n:].tobytes()
                assert row[:0:-1].tobytes() == diagonal[:n].tobytes()

    def test_underflowing_mesh_is_inf_without_warnings(self):
        # h*h underflows to 0 below about 1e-162; the kinetic term is then +inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traces = collocation_trace(QUARTIC, 3, np.array([1e-300, 1e-150, 1.0]))
        assert traces[0] == math.inf
        assert np.isfinite(traces[1:]).all()
        assert traces[1:].tobytes() == np.array(
            [collocation_trace(QUARTIC, 3, 1e-150), collocation_trace(QUARTIC, 3, 1.0)]).tobytes()

    def test_overflowing_sum_is_inf_without_warnings(self):
        # both outer points are finite, just below the float maximum; only
        # their sum overflows
        potential = parse_potential("poly:1")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert collocation_trace(potential, 1, 355.3) == math.inf


class TestTraceSlope:
    @pytest.mark.parametrize("potential", SLOPE_WELLS)
    def test_matches_central_difference_of_trace(self, potential):
        for n in (1, 2, 5, 20, 60):
            for h in (0.02, 0.1, 0.3, 0.8):
                step = 1e-6 * h
                upper = collocation_trace(potential, n, h + step)
                lower = collocation_trace(potential, n, h - step)
                if not (math.isfinite(upper) and math.isfinite(lower)):
                    continue
                difference = (upper - lower) / (2.0 * step)
                # rounding of the traces over the step, and the step's truncation
                scale = abs(collocation_trace(potential, n, h)) / h
                slope = collocation_trace_slope(potential, n, h)
                assert abs(slope - difference) <= 1e-6 * (abs(difference) + scale), (n, h)

    def test_three_points(self):
        # N = 1, quartic: d/dh of pi^2/(3h^2) + 2 pi^2 sech^2 h/(3h^2)
        # + 2 (sech^2 h/4 - 3 sech^4 h/4 + sinh^2 h + sinh^4 h)
        for h in (0.2, 0.7, 1.0):
            c, s, t = math.cosh(h), math.sinh(h), math.tanh(h)
            u = 1.0 / (c * c)
            kinetic = -2.0 * math.pi**2 / (3.0 * h**3) * (1.0 + 2.0 * u * (1.0 + h * t))
            outer = 2.0 * (-0.5 * u * t + 3.0 * u * u * t + (2.0 * s + 4.0 * s**3) * c)
            assert collocation_trace_slope(QUARTIC, 1, h) == pytest.approx(
                kinetic + outer, rel=1e-13)

    @pytest.mark.parametrize("n", [1, 7, 40])
    def test_array_of_mesh_sizes_matches_scalar_calls_bit_for_bit(self, n):
        hs = np.array([[1e-3, 0.05, 0.3], [1.0, 40.0, 800.0]])
        for potential in (QUARTIC, TRIPLE_WELL, chebyshev_well(20, -1.0)):
            slopes = collocation_trace_slope(potential, n, hs)
            assert slopes.shape == hs.shape
            scalar = [collocation_trace_slope(potential, n, float(h)) for h in hs.ravel()]
            assert slopes.ravel().tobytes() == np.array(scalar).tobytes()

    def test_extreme_mesh_sizes_give_signed_infinities_without_warnings(self):
        # 1/h^2 overflows at 1e-300; far out every term is +inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            slopes = collocation_trace_slope(QUARTIC, 3, np.array([1e-300, 0.3, 800.0]))
        assert slopes[0] == -math.inf
        assert math.isfinite(slopes[1])
        assert slopes[2] == math.inf

    def test_rejects_half_width_below_one(self):
        with pytest.raises(ValueError, match="truncation half-width must be >= 1"):
            collocation_trace_slope(QUARTIC, 0, 0.3)

    @pytest.mark.parametrize("h", [0.0, -1.0, math.nan, math.inf])
    def test_trace_and_slope_reject_mesh_size_outside_zero_to_inf(self, h):
        for fn in (collocation_trace, collocation_trace_slope):
            with pytest.raises(ValueError, match="mesh size must be positive and finite"):
                fn(QUARTIC, 3, h)
            with pytest.raises(ValueError, match="mesh size must be positive and finite"):
                fn(QUARTIC, 3, np.array([0.3, h]))


class SearchLog(list):
    """The trace calls and slope passes of the searches run while it is
    installed, in the order made, as (name, N, a copy of the grid): "trace"
    for a call of the public trace, "slope" for each grid of every request
    that the batched slope evaluation gets, first passes included.
    ``rounds`` holds, per batched evaluation, the N of each request it
    serves."""

    def __init__(self, monkeypatch):
        super().__init__()
        self.rounds = []
        raw_trace, raw_passes = mesh.collocation_trace, mesh._slope_passes

        def trace(potential, half_width, h, **scan):
            self.append(("trace", half_width, np.array(h, copy=True)))
            return raw_trace(potential, half_width, h, **scan)

        def passes(potential, requests):
            self.rounds.append([n for n, _ in requests])
            self.extend(("slope", n, np.array(grid, copy=True))
                        for n, grids in requests for grid in grids)
            return raw_passes(potential, requests)

        monkeypatch.setattr(mesh, "collocation_trace", trace)
        monkeypatch.setattr(mesh, "_slope_passes", passes)

    def grids(self, name):
        """The grids of the calls named ``name``, in order."""
        return [grid for kind, _, grid in self if kind == name]


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

        def record(potential, n, h, **scan):
            grids.append(np.array(h, copy=True))
            return collocation_trace(potential, n, h, **scan)

        monkeypatch.setattr(mesh, "collocation_trace", record)
        trace_minimized_mesh_size(TRIPLE_WELL, 20)
        expected = np.exp(np.linspace(math.log(1e-3), math.log(5.0), 64))
        assert grids[0].tobytes() == expected.tobytes()

    def test_first_grid_is_read_only(self):
        # every search scans this one array first
        assert not _FIRST_GRID.flags.writeable
        with pytest.raises(ValueError):
            _FIRST_GRID[0] = 1.0

    @pytest.mark.parametrize("spec,n", [("poly:1,1", 5), ("cheb:20;shift=-1", 40),
                                        ("poly:1e10,1e10", 100)])
    def test_search_scans_linspace_grids(self, monkeypatch, spec, n):
        log = SearchLog(monkeypatch)
        trace_minimized_mesh_size(parse_potential(spec), n)
        passes = log.grids("slope")
        # every full slope pass runs over a 64-point linspace cell, which lies
        # inside a cell before it; the last pass is a 6-point slice, byte for
        # byte a contiguous run of the linspace cell over a bracket of the
        # full cell before it
        assert len(passes) >= 2 and passes[0].shape == (64,) and passes[-1].shape == (6,)
        full = []
        for grid in passes:
            if grid.shape == (6,):
                cells = [np.linspace(a, b, 64) for a, b in zip(full[-1], full[-1][1:])]
                assert any(cell[start : start + 6].tobytes() == grid.tobytes()
                           for cell in cells for start in range(59))
                continue
            assert grid.shape == (64,)
            assert grid.tobytes() == np.linspace(grid[0], grid[-1], 64).tobytes()
            assert not full or any(cell[0] <= grid[0] < grid[-1] <= cell[-1] for cell in full)
            full.append(grid)

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

    @pytest.mark.parametrize("potential,tolerance", SLOPE_ZERO_TOLERANCES)
    def test_trace_no_worse_than_golden_section(self, potential, tolerance):
        # Golden section narrows the trace itself, so it stops where rounding
        # hides the minimum (up to 3.5e-9 relative off the slope's zero here).
        # The search lands on the zero of the dip golden section found, or on
        # another dip of the scan's best triple with a lower trace (cheb:20
        # and cheb:40 at N = 1).
        for n in (1, 2, 5, 10, 20, 50, 100):
            h_golden = golden_section_mesh_size(potential, n)
            zero = slope_zero_by_bisection(potential, n, h_golden)
            h_hat = trace_minimized_mesh_size(potential, n)
            if abs(h_hat - zero) > tolerance * zero:
                got, oracle = collocation_trace(potential, n, np.array([h_hat, h_golden]))
                assert got < oracle, n

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
        # trace and slope calls alike: each slope pass narrows the bracket
        # 63-fold, and a widened window adds one scan per widening
        calls = SearchLog(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = trace_minimized_mesh_size(parse_potential(spec), n)
        assert len(calls) <= 16
        assert 0.0 < h < math.inf

    @pytest.mark.parametrize("spec,n", [("poly:1,1", 5), ("poly:1,-4,1", 40),
                                        ("cheb:20;shift=-1", 1), ("cheb:40;shift=-1", 100)])
    def test_first_window_costs_two_trace_and_two_slope_calls(self, monkeypatch, spec, n):
        # one scan, the first slope pass and a 6-point slice of the last
        # cell, whose one rise gives h as the slope's zero; the slice is moved
        # once where it misses the rise (cheb:40 at N = 100). Where the first
        # pass sees several dips (cheb:20 at N = 1), the second evaluates one
        # cell per dip, and a second trace call, over their zeros alone, picks
        # the lowest
        log = SearchLog(monkeypatch)
        h_hat = trace_minimized_mesh_size(parse_potential(spec), n)
        calls = [(name, h) for name, _, h in log]
        names = [name for name, _ in calls]
        if spec == "cheb:20;shift=-1":
            zeros = calls[-1][1]
            assert zeros.ndim == 1 and 1 < len(zeros) < 64 and h_hat in zeros
            assert names == ["trace"] + ["slope"] * (1 + len(zeros)) + ["trace"]
            assert [h.shape for _, h in calls[1:-1]] == [(64,)] * (1 + len(zeros))
        else:
            slices = [(6,)] * (2 if spec == "cheb:40;shift=-1" else 1)
            assert names == ["trace"] + ["slope"] * (1 + len(slices))
            assert [h.shape for _, h in calls[1:]] == [(64,)] + slices

    @pytest.mark.parametrize("spec,n", [("cheb:20;shift=-1", 1), ("cheb:40;shift=-1", 2)])
    def test_several_rises_refine_every_cell_in_lockstep(self, monkeypatch, spec, n):
        # each rise of a pass becomes a cell of its own in the next, and every
        # cell is refined again until all brackets are narrow: the zeros the
        # last trace call compares each lie in one cell of the last pass, and
        # all of them lie equally deep inside the cells evaluated before
        log = SearchLog(monkeypatch)
        h_hat = trace_minimized_mesh_size(parse_potential(spec), n)
        cells, traced = log.grids("slope"), log.grids("trace")
        zeros = traced[-1].tolist()
        assert 1 < len(zeros) < 64 and h_hat in zeros
        assert all(cell.shape == (64,) for cell in cells)
        last = cells[-len(zeros):]
        for zero, cell in zip(zeros, last):
            assert cell[0] <= zero <= cell[-1]
            assert cell[1] - cell[0] <= mesh._BRACKET * cell[0]
        depths = {sum(cell[0] <= zero <= cell[-1] for cell in cells) for zero in zeros}
        assert len(depths) == 1 and depths.pop() >= 2, depths
        # every pass is one request, the first pass's one cell a round of
        # its own, and all the cells of a later pass evaluated together
        passes = (len(cells) - 1) // len(zeros) + 1
        assert log.rounds == [[n]] * passes
        assert len(cells) == 1 + (passes - 1) * len(zeros)

    @pytest.mark.parametrize("potential,tolerance", SLOPE_ZERO_TOLERANCES)
    def test_is_the_slope_zero(self, potential, tolerance):
        for n in (1, 2, 5, 20, 100):
            h_hat = trace_minimized_mesh_size(potential, n)
            zero = slope_zero_by_bisection(potential, n, h_hat)
            assert abs(h_hat - zero) <= tolerance * zero, n

    @pytest.mark.parametrize("potential,tolerance", SLOPE_ZERO_TOLERANCES)
    def test_interpolated_zero_within_resolution(self, monkeypatch, potential, tolerance):
        zeros = []

        def record(grid, slope, i):
            zeros.append(_interpolated_zero(grid, slope, i))
            return zeros[-1]

        monkeypatch.setattr(mesh, "_interpolated_zero", record)
        for n in (1, 2, 5, 20, 100):
            zeros.clear()
            zero = slope_zero_by_bisection(potential, n, trace_minimized_mesh_size(potential, n))
            assert min(abs(z - zero) for z in zeros) <= tolerance * zero, n

    def test_interpolated_zero_falls_back_to_the_secant(self):
        grid = np.arange(64.0)
        kinked = np.where(grid < 10.0, -1.0, grid - 9.5)  # flat, so not strictly rising
        assert _interpolated_zero(grid.tolist(), kinked.tolist(), 9) == 9.0 + 1.0 / 1.5
        line = grid - 30.25
        assert _interpolated_zero(grid.tolist(), line.tolist(), 30) == pytest.approx(
            30.25, abs=1e-12)
        for curved in (line**3, np.exp(grid) - math.exp(30.25), np.cbrt(line)):
            assert 30.0 <= _interpolated_zero(grid.tolist(), curved.tolist(), 30) <= 31.0

    def test_slice_of_the_last_cell_reads_the_full_cells_zero_or_defers(self, monkeypatch):
        # made-up slopes over the cell [1, 1.005], whose 64 points lie 7.9e-5 apart
        a, b = 1.0, 1.005
        cell = np.linspace(a, b, 64)
        zero = cell.item(40) + 0.3 * (cell.item(41) - cell.item(40))
        passes = []

        def last_pass(slope, guess, lo=a, hi=b):
            passes.clear()

            def slope_passes(potential, requests):
                ((n, grids),) = requests
                assert n == 5 and len(grids) == 1
                passes.append(grids[0].tobytes())
                return [[slope(grids[0]).tolist()]]

            monkeypatch.setattr(mesh, "_slope_passes", slope_passes)
            monkeypatch.setattr(mesh, "_search",
                                lambda potential, n, scan: mesh._sliced_last_pass(lo, hi, guess))
            (zero,) = mesh._lockstep(QUARTIC, [5])
            return zero

        def alternating(h):  # rises at points 39 and 41
            return np.where(np.isin(h, cell[1::2]), -1.0, 1.0)

        def step(h):  # one rise, at point 38, the slice's first
            return np.where(h < cell[39], -1.0, 1.0)

        # one rise: the full cell's zero, from its points 38..43 alone
        full = _interpolated_zero(cell.tolist(), (cell - zero).tolist(), 40)
        assert last_pass(lambda h: h - zero, zero) == full
        assert passes == [cell[38:44].tobytes()]
        # a guess that misses: the secant through the slice's ends moves it once
        assert last_pass(lambda h: h - zero, cell.item(5)) == full
        assert passes == [cell[3:9].tobytes(), cell[38:44].tobytes()]
        # the full pass runs where the moved slice misses too (or would be the
        # same slice, or the slice's ends place no secant zero), where a slice
        # shows several rises, and where the bracket is still wider than 1e-4
        assert last_pass(lambda h: h - 2.0, zero) is None and len(passes) == 2
        assert last_pass(step, zero) is None and len(passes) == 1
        assert last_pass(lambda h: np.full(h.shape, -1.0), zero) is None and len(passes) == 1
        assert last_pass(alternating, zero) is None and len(passes) == 1
        assert last_pass(lambda h: h - 1.05, 1.05, 1.0, 1.1) is None and len(passes) == 1

    def test_slope_that_resolves_no_dip_leaves_the_pick_to_the_trace(self, monkeypatch):
        picked = []

        def record(potential, half_width, h, **scan):
            traces = collocation_trace(potential, half_width, h, **scan)
            picked.append((np.array(h, copy=True), traces))
            return traces

        monkeypatch.setattr(mesh, "collocation_trace", record)
        monkeypatch.setattr(mesh, "_slope_passes", lambda potential, requests: [
            [[1.0] * len(grid) for grid in grids] for _, grids in requests])
        h_hat = trace_minimized_mesh_size(TRIPLE_WELL, 20)
        (scan, scanned), (grid, traces) = picked
        best = _best_trace(scan, scanned)
        assert grid.tobytes() == np.linspace(scan[best - 1], scan[best + 1], 64).tobytes()
        assert h_hat == grid[int(np.argmin(traces))]

    def test_rejects_bad_truncation(self):
        with pytest.raises(ValueError):
            trace_minimized_mesh_size(QUARTIC, 0)

    def test_undefined_trace_ranks_as_plus_inf(self):
        grid = np.array([0.1, 0.2, 0.3, 0.4])
        assert _best_trace(grid, np.array([2.0, math.nan, 1.0, 3.0])) == 2
        assert _best_trace(grid, np.array([math.nan, math.inf, 5.0, math.nan])) == 2
        assert _best_trace(grid, np.array([math.nan, 1.0, 1.0, math.nan])) == 1
        with pytest.raises(CollocationOverflowError, match="h = 0.3"):
            _best_trace(grid, np.array([math.nan, 1.0, -math.inf, math.nan]))

    def test_mixed_infinities_give_nan_trace_without_warning(self):
        # V(sinh kh) is -inf at k = 1 and +inf at k = 2
        potential = parse_potential("poly:-1e300,1e-300")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = collocation_trace(potential, 2, np.array([1.0, 177.8, 300.0]))
            assert math.isnan(trace[1])
            with pytest.raises(CollocationOverflowError):
                trace_minimized_mesh_size(potential, 2)


# the catalog, a deep double well, Chebyshev wells of five, ten and twenty
# minima, and a well whose first scan has its minimum at an edge, so the
# search widens the window past the table
TABLE_WELLS = [case.potential for case in analytic_catalog()] + [
    parse_potential(spec)
    for spec in ("poly:-20,1", "cheb:10;shift=-1", "cheb:20;shift=-1", "cheb:40;shift=-1",
                 "poly:1e308")
]
TABLE_SIZES = list(range(1, 121))
TRACE_MIN = MeshStrategy.trace_minimized()


@pytest.fixture(scope="module")
def fresh_table_mesh_sizes():
    """Trace-minimized h of every table well and N, each choice building its
    own first-scan table at N."""
    return {(i, n): trace_minimized_mesh_size(p, n)
            for i, p in enumerate(TABLE_WELLS) for n in TABLE_SIZES}


def table_calls(order):
    """(well index, N) in the order a test visits them."""
    wells = range(len(TABLE_WELLS))
    if order == "ascending":
        return [(i, n) for i in wells for n in TABLE_SIZES]
    if order == "descending":
        return [(i, n) for i in wells for n in reversed(TABLE_SIZES)]
    # A, B, ..., A: every call switches potential, and with it the table read
    return [(i, n) for n in TABLE_SIZES for i in wells]


class TestSweepScanTable:
    @pytest.mark.parametrize("order", ["ascending", "descending", "interleaved"])
    def test_trace_and_mesh_size_equal_the_uncached_ones_bit_for_bit(
            self, fresh_table_mesh_sizes, order):
        tables = [mesh._ScanTable() for _ in TABLE_WELLS]  # one sweep's table per well
        for i, n in table_calls(order):
            p, table = TABLE_WELLS[i], tables[i]
            previous = (table.scan.shape[1] + 1) // 2  # columns k >= 0
            cached = collocation_trace(p, n, _FIRST_GRID, _scan=table)
            assert cached.tobytes() == collocation_trace(p, n, _FIRST_GRID).tobytes(), (i, n)
            # mirrored: columns k = -M..M, M + 1 at least N + 1 and at most double
            assert table.scan.shape[1] % 2 == 1
            assert n + 1 <= (table.scan.shape[1] + 1) // 2 <= max(n + 1, 2 * previous), (i, n)
            assert table.scan.shape[0] == 64
            (h,) = mesh_size_for(p, [n], TRACE_MIN, _scan=table)
            assert h.hex() == fresh_table_mesh_sizes[i, n].hex(), (i, n)

    def test_table_grows_to_at_least_double_and_never_shrinks(self):
        table = mesh._ScanTable()
        # the columns k = 0..M, mirrored to k = -M..M
        for n, width in [(3, 4), (4, 8), (2, 8), (7, 8), (8, 16), (40, 41), (1, 41)]:
            collocation_trace(QUARTIC, n, _FIRST_GRID, _scan=table)
            assert table.scan.shape == (64, 2 * width - 1)


# a Chebyshev well of twenty minima, a deep double well, the harmonic well
# and a stiff quartic
PASS_SPECS = ("cheb:40", "poly:-20,1", "poly:1", "poly:1e8,1e8")
PASS_WELLS = [parse_potential(spec) for spec in PASS_SPECS]
PASS_CELLS = (1, 30, 62)


@pytest.fixture
def terms_calls(monkeypatch):
    """The (grid, k) of each mesh._slope_terms call made while the test runs."""
    calls, raw = [], mesh._slope_terms
    monkeypatch.setattr(mesh, "_slope_terms", lambda potential, h, k: (
        calls.append((h.copy(), k.copy())) or raw(potential, h, k)))
    return calls


def assert_pass_is_fresh(terms_calls, potential, requests):
    """One _slope_passes call over ``requests``, each (N, grids): every slope
    is the oracle's over its grid alone at its N, byte for byte, and the one
    _slope_terms call gets each distinct grid object's rows once, in the
    order first asked for, at k = 1..S, S the largest N. Returns how many
    rows the sharing saved."""
    terms_calls.clear()
    with np.errstate(over="ignore", invalid="ignore"):  # as the search calls it
        got = mesh._slope_passes(potential, requests)
    distinct = list({id(grid): grid for _, grids in requests for grid in grids}.values())
    ((h, k),) = terms_calls
    assert h.tobytes() == np.concatenate(distinct).tobytes()
    assert k.tolist() == list(range(1, max(n for n, _ in requests) + 1))
    assert [len(slopes) for slopes in got] == [len(grids) for _, grids in requests]
    for (n, grids), slopes in zip(requests, got):
        for grid, slope in zip(grids, slopes):
            fresh = collocation_trace_slope(potential, n, grid)
            assert np.array(slope).tobytes() == fresh.tobytes(), (potential, n, len(grid))
    return sum(len(grid) for _, grids in requests for grid in grids) - len(h)


def slice_of(cell, start):
    """A 6-point slice of the linear cell over [cell[1], cell[2]], as the last pass forms it."""
    return np.array(mesh._slice_points(cell.item(1), cell.item(2), start))


class TestFirstPassTable:
    def test_grids_are_the_searchs_linear_grids_byte_for_byte(self):
        assert len(mesh._FIRST_PASS) == 62
        for cell, grid in enumerate(mesh._FIRST_PASS, 1):
            expected = np.linspace(_FIRST_GRID[cell - 1], _FIRST_GRID[cell + 1], 64)
            assert grid.shape == (64,) and not grid.flags.writeable
            assert grid.tobytes() == expected.tobytes(), cell

    @pytest.mark.parametrize("potential", PASS_WELLS, ids=PASS_SPECS)
    def test_reads_equal_fresh_slopes_as_n_rises_and_falls(self, terms_calls, potential):
        # rounds of eight searches whose first scans share a cell, at N
        # rising, falling and mixed: the cell's rows are evaluated once, at
        # the largest N, and each search sums its own first N columns
        sizes = list(range(1, 121))
        orders = [sizes, sizes[::-1], np.random.default_rng(3).permutation(sizes).tolist()]
        for cell in PASS_CELLS:
            grid = mesh._FIRST_PASS[cell - 1]
            for order in orders:
                for i in range(0, len(order), 8):
                    saved = assert_pass_is_fresh(terms_calls, potential,
                                                 [(n, [grid]) for n in order[i : i + 8]])
                    assert saved == 7 * 64

    def test_reads_equal_fresh_slopes_switching_potentials_and_cells(self, terms_calls):
        # each round holds searches at several shared cells; some ask for a
        # shared cell and a 6-point slice, a slice alone, two cells, or the
        # same cell twice, and neighbouring requests at one N run on
        rng = np.random.default_rng(11)
        cells = [mesh._FIRST_PASS[cell - 1] for cell in PASS_CELLS]
        shapes = [lambda c: [c], lambda c: [c, slice_of(c, int(rng.integers(59)))],
                  lambda c: [slice_of(c, int(rng.integers(59)))], lambda c: [c, cells[0]],
                  lambda c: [c, c]]
        saved = 0
        for step in range(120):
            potential = PASS_WELLS[step % len(PASS_WELLS)]
            sizes = rng.integers(1, 121, size=int(rng.integers(1, 9))).tolist()
            if step % 3 == 0:  # the same N twice in a row
                sizes[-1:] = sizes[-1:] * 2
            saved += assert_pass_is_fresh(terms_calls, potential, [
                (n, shapes[int(rng.integers(len(shapes)))](cells[int(rng.integers(len(cells)))]))
                for n in sizes])
        assert saved > 0

    def test_record_holds_the_first_scan_only(self):
        table = mesh._ScanTable()
        assert table.__slots__ == ("scan",)
        mesh_size_for(TRIPLE_WELL, [20], TRACE_MIN, _scan=table)
        assert table.scan.shape == (64, 41)

    def test_derivative_runs_once_per_round(self, monkeypatch):
        potential = parse_potential("cheb:10;shift=-1")
        calls, passes, rounds = [], [], []
        raw_derivative, raw_passes = type(potential).derivative, mesh._slope_passes

        def derivative(self, x):
            calls.append(x.shape)
            return raw_derivative(self, x)

        def slope_passes(p, requests):
            rounds.append([n for n, _ in requests])
            passes.append([grid for _, grids in requests for grid in grids])
            return raw_passes(p, requests)

        monkeypatch.setattr(type(potential), "derivative", derivative)
        monkeypatch.setattr(mesh, "_slope_passes", slope_passes)
        problem = DescmProblem(potential, strategy=MeshStrategy.trace_minimized())
        records = solver.converge(problem, level=0, tolerance=5e-12, n_max=60).records
        # every truncation of the blocks begun is searched, in blocks of
        # _SWEEP_BLOCK: one round of the block's first passes, each a shared
        # first-pass cell, and one round of its second passes
        block = solver._SWEEP_BLOCK
        planned = list(range(2, 61))[: -(-len(records) // block) * block]
        blocks = [planned[i : i + block] for i in range(0, len(planned), block)]
        assert rounds == [ns for ns in blocks for _ in range(2)]
        first, second = passes[0::2], passes[1::2]
        shared = {id(cell) for cell in mesh._FIRST_PASS}
        assert all(id(grid) in shared for grids in first for grid in grids)
        assert not any(id(grid) in shared for grids in second for grid in grids)
        # V' once per round, over each distinct cell of a first round once
        # and at the largest N of the round
        assert len(calls) == len(rounds)
        assert calls[0::2] == [(64 * len({id(grid) for grid in grids}), ns[-1])
                               for grids, ns in zip(first, blocks)]
        assert sum(len({id(grid) for grid in grids}) for grids in first) < len(planned) / 2
        # a repeated choice evaluates V' once per round of its search
        calls.clear()
        trace_minimized_mesh_size(potential, planned[-1])
        assert len(calls) == 2

    def test_threads_sweeping_different_potentials_match_serial_calls(self):
        wells = [parse_potential(spec) for spec in ("cheb:20;shift=-1", "poly:-20,1", "poly:1,1",
                                                    "cheb:10;shift=-1")]
        sizes = (list(range(1, 61)) + list(range(60, 0, -3))) * 2
        expected = [[trace_minimized_mesh_size(p, n).hex() for n in sizes[:80]] * 2 for p in wells]
        got = [None] * len(wells)

        def work(i):
            got[i] = [trace_minimized_mesh_size(wells[i], n).hex() for n in sizes]

        run_in_threads(work, len(wells))
        assert got == expected


# the 14 wells of the multiwell benchmark (seed 1), and a plain and a stiff quartic
REFERENCE_SPECS = MULTIWELL_SPECS + ("poly:1,1", "poly:1e8,1e8")
# cheb:40 takes the moved slice at 91 of N = 1..130 (50 of N = 30..100), and
# the full last pass at N = 4, 5, 6 and 13
REFERENCE_SIZES = list(range(1, 131)) + list(range(200, 3, -4))


def reference_cases():
    """(spec, N) in the order the reference test visits them."""
    cases = [(spec, n) for spec in REFERENCE_SPECS for n in REFERENCE_SIZES]
    cases += [(spec, n) for spec in ("cheb:20;shift=-1", "cheb:40;shift=-1") for n in (1, 2)]
    cases += [("poly:1e10,1e10", n) for n in (100, 400)]  # widened: more than two passes
    cases += [(spec, n) for spec in ("poly:1e308", "poly:1e-300") for n in (1, 100)]
    return cases + [(MINUS_INF_RISE, n) for n in (1, 3, 5)]


def mesh_size_or_overflow(search, potential, n):
    """The hex of the chosen h, or the CollocationOverflowError it raised."""
    try:
        return search(potential, n).hex()
    except CollocationOverflowError as exc:
        return f"CollocationOverflowError: {exc}"


class TestLockstepReference:
    def test_search_equals_the_lockstep_search_bit_for_bit(self, monkeypatch):
        calls = []

        def recorded(name, function):
            def wrapper(potential, half_width, h):
                calls.append((name, np.shape(h)))
                return function(potential, half_width, h)
            return wrapper

        monkeypatch.setattr(oracles, "collocation_trace", recorded("trace", collocation_trace))
        monkeypatch.setattr(oracles, "collocation_trace_slope",
                            recorded("slope", collocation_trace_slope))
        log, shapes = SearchLog(monkeypatch), set()
        potentials, mismatches, several_rises, widened, overflows = {}, [], 0, 0, 0
        last_passes = {"first slice": 0, "moved slice": 0, "full after a slice": 0}
        for spec, n in reference_cases():
            potential = potentials.setdefault(spec, parse_potential(spec))
            calls.clear()
            expected = mesh_size_or_overflow(lockstep_trace_minimized_mesh_size, potential, n)
            log.clear()
            got = mesh_size_or_overflow(trace_minimized_mesh_size, potential, n)
            passes = [grid.shape for grid in log.grids("slope")]
            shapes.update(passes)
            slices = passes.count((6,))
            if slices:
                last_passes["full after a slice" if passes[-1] != (6,) else
                            "moved slice" if slices == 2 else "first slice"] += 1
            if got != expected:
                mismatches.append((spec, n, got, expected))
            # a pass of several cells, or a last pick among several zeros
            names = [name for name, _ in calls]
            several_rises += any(math.prod(shape) > 64 for _, shape in calls) or (
                names[-1:] == ["trace"] and 1 < math.prod(calls[-1][1]) < 64)
            scans = names.index("slope") if "slope" in names else len(names)
            widened += scans > 1
            overflows += expected.startswith("CollocationOverflowError")
        assert mismatches == []
        # every pass the search makes, a shared first-pass cell included, is
        # one 1-D cell or a slice of one, however many cells the lockstep
        # search's pass held
        assert shapes == {(64,), (6,)}, shapes
        # so that the cases cannot pass vacuously: lockstep cells, widened
        # windows and a -inf trace all occur, and the last pass is read from
        # the first slice, from the moved slice and from the full cell
        assert several_rises >= 1 and widened >= 1 and overflows >= 1, (
            several_rises, widened, overflows)
        assert min(last_passes.values()) >= 1, last_passes


# values that bend the Python-float steps of the search: NaN, signed
# infinities and zeros
SPECIAL_FLOATS = (math.nan, math.inf, -math.inf, 0.0, -0.0)


def seeded_floats(rng, size, low, high):
    """``size`` sorted uniform floats in [low, high), about one in eight then
    replaced by a special value and one in eight by its left neighbour."""
    values = np.sort(rng.uniform(low, high, size))
    for j, draw in enumerate(rng.random(size)):
        if draw < 0.125:
            values[j] = SPECIAL_FLOATS[rng.integers(len(SPECIAL_FLOATS))]
        elif draw < 0.25 and j:
            values[j] = values[j - 1]
    return values


def hex_or_raised(function, *args):
    """The hex of a float result, or the name of the exception raised."""
    try:
        return function(*args).hex()
    except ZeroDivisionError as exc:
        return type(exc).__name__


class TestPythonFloatSteps:
    """The search's steps on a few Python floats equal the array forms they
    replaced, bit for bit."""

    def test_written_out_cubic_equals_the_loop_bit_for_bit(self, rng):
        taken = {"cubic": 0, "secant": 0, "raised": 0}
        for _ in range(3000):
            size = int(rng.integers(4, 9))
            grid = seeded_floats(rng, size, 0.5, 2.0)
            slope = seeded_floats(rng, size, -1.0, 1.0)
            for i in range(size - 1):
                got = hex_or_raised(_interpolated_zero, grid.tolist(), slope.tolist(), i)
                assert got == hex_or_raised(oracles.loop_interpolated_zero, grid, slope, i), (
                    grid.tolist(), slope.tolist(), i)
                if got == "ZeroDivisionError":
                    taken["raised"] += 1
                else:
                    a, b, sa, sb = grid[i], grid[i + 1], slope[i], slope[i + 1]
                    with np.errstate(all="ignore"):
                        secant = float(a - sa * ((b - a) / (sb - sa)))
                    taken["secant" if got == secant.hex() else "cubic"] += 1
        # each branch is taken, the cubic in hundreds of cases
        assert min(taken.values()) >= 300, taken
        # four zero terms: the sum starts from 0.0, as the loop's does, so the
        # sign of the zero it returns is the loop's
        grid, slope = np.array([0.0, -0.0, -0.0, 0.0]), np.array([-3.0, -1.0, 1.0, 3.0])
        assert _interpolated_zero(grid.tolist(), slope.tolist(), 1).hex() == "0x0.0p+0"
        assert oracles.loop_interpolated_zero(grid, slope, 1).hex() == "0x0.0p+0"

    def test_slice_rises_follow_the_array_rule(self, rng):
        # a slice's six slopes and a full pass's 64 read their rises by one rule
        alphabet = np.array([*SPECIAL_FLOATS, -1.0, 1.0, -5e-324, 5e-324])
        for points, draws in ((6, 20000), (64, 3000)):
            for _ in range(draws):
                slope = alphabet[rng.integers(len(alphabet), size=points)]
                if rng.random() < 0.5:  # ordinary floats too, with equal neighbours
                    slope = np.where(rng.random(points) < 0.5, rng.normal(size=points), slope)
                    for j in np.flatnonzero(rng.random(points - 1) < 0.2) + 1:
                        slope[j] = slope[j - 1]
                assert mesh._rises(slope.tolist()) == oracles.array_rises(slope), slope.tolist()

    def test_slice_points_are_the_cells_points_bit_for_bit(self, rng):
        # brackets from 1e-4 relative wide, as the search slices them, to
        # 1e3, where the ramp's last point misses b and b is put in its place
        missed = 0
        for _ in range(400):
            a = math.exp(rng.uniform(math.log(1e-6), math.log(1e3)))
            b = a * (1.0 + math.exp(rng.uniform(math.log(1e-4), math.log(1e3))))
            cell = np.linspace(a, b, 64)
            for start in range(59):
                points = mesh._slice_points(a, b, start)
                assert all(type(x) is float for x in points)
                assert np.array(points).tobytes() == cell[start : start + 6].tobytes(), (
                    a, b, start)
            missed += 63 * ((b - a) / 63) + a != b
        assert missed >= 1
        # the first and the last slice of 2000 more cells, from 1e-12 relative
        # wide, and of one whose ramp alone ends one ulp past b
        starts = np.exp(rng.uniform(math.log(1e-8), math.log(1e3), 2000))
        widths = 10.0 ** rng.uniform(-12.0, 0.0, 2000)
        pairs = [(63.718357311864395, 126.93567180349224)]
        assert 63 * ((pairs[0][1] - pairs[0][0]) / 63) + pairs[0][0] > pairs[0][1]
        pairs += [(a, a * (1.0 + width)) for a, width in zip(starts.tolist(), widths.tolist())]
        for a, b in pairs:
            cell = np.linspace(a, b, 64)
            for start in (0, 58):
                points = np.array(mesh._slice_points(a, b, start))
                assert points.tobytes() == cell[start : start + 6].tobytes(), (a, b, start)

    def test_search_at_n_5000_equals_the_lockstep_search_bit_for_bit(self):
        # far past the truncations of any sweep
        potential = chebyshev_well(20, -1.0)
        expected = lockstep_trace_minimized_mesh_size(potential, 5000)
        assert trace_minimized_mesh_size(potential, 5000).hex() == expected.hex()


class TestMeshStrategy:
    def test_dispatch(self):
        assert mesh_size_for(QUARTIC, (12,), MeshStrategy.optimal()) == [
            optimal_mesh_size(QUARTIC, 12)]
        assert mesh_size_for(QUARTIC, (12,), MeshStrategy.fixed(0.25)) == [0.25]
        assert mesh_size_for(QUARTIC, (12,), MeshStrategy.trace_minimized()) == [pytest.approx(
            trace_minimized_mesh_size(QUARTIC, 12), rel=1e-12
        )]

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
