import functools
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from descm import (
    CollocationOverflowError,
    ConvergenceRecord,
    DescmProblem,
    EvenPolynomialPotential,
    MeshStrategy,
    analytic_catalog,
    assemble_collocation_matrix,
    chebyshev_well,
    converge,
    mesh,
    parse_potential,
    reconstruct_wavefunction,
    solve,
    solver,
    trace_minimized_mesh_size,
)
from descm.cli import _TABLE_ROWS
from descm.mesh import mesh_size_for
from conftest import MINUS_INF_RISE, MULTIWELL_SPECS, random_potential, run_in_threads
from oracles import CHEB40_E0_AT_300, TEN_WELL_E0_LIMIT, two_block_converge

QUARTIC = EvenPolynomialPotential((1.0, 1.0))
HARMONIC = EvenPolynomialPotential((1.0,))
# reference ground state of x^2 + x^4, known far beyond double precision
QUARTIC_E0 = 1.392351641530291855


def level_error(potential, level, exact, half_width, strategy=MeshStrategy.optimal()):
    problem = DescmProblem(potential, strategy=strategy, levels_requested=level + 1)
    return abs(float(solve(problem, half_width).spectrum[level]) - exact)


class TestSolve:
    def test_triple_well_v1_ground_state(self):
        v1 = analytic_catalog()[0]
        assert level_error(v1.potential, 0, -2.0, 40) <= 1e-9

    def test_high_degree_reference_values(self):
        # x^2 + 100 x^8 at 41 collocation points; reference eigenvalues are
        # converged to ~6e-12 at this truncation
        p = EvenPolynomialPotential((1.0, 0.0, 0.0, 100.0))
        result = solve(DescmProblem(p, levels_requested=3), 20)
        assert abs(result.eigenvalues[0] - 3.18865434649856) <= 5e-11
        assert abs(result.eigenvalues[1] - 12.1950219336715) <= 1e-9
        assert abs(result.eigenvalues[2] - 26.0334583214430) <= 1e-9

    def test_decic_reference_values(self):
        p = EvenPolynomialPotential((-1.0, 3.0, -2.0, 0.0, 0.1))
        result = solve(DescmProblem(p, levels_requested=3), 50)
        assert abs(result.eigenvalues[0] - -0.0962919462309655) <= 1e-11
        assert abs(result.eigenvalues[1] - 0.672993242745170) <= 1e-10
        assert abs(result.eigenvalues[2] - 3.111022328724715) <= 1e-9

    def test_result_metadata(self):
        result = solve(DescmProblem(QUARTIC, levels_requested=2), 9)
        assert result.half_width == 9
        assert result.size == 19
        assert result.h_used > 0.0
        assert result.wall_time > 0.0
        assert len(result.eigenvalues) == 2
        assert len(result.spectrum) == 19
        assert np.all(np.diff(result.spectrum) >= 0.0)

    def test_spectrum_and_vectors_read_only(self):
        result = solve(DescmProblem(QUARTIC, levels_requested=3), 6, want_vectors=True)
        for array in (result.eigenvalues, result.spectrum, result.eigenvectors):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1.0
        values_only = solve(DescmProblem(QUARTIC, levels_requested=3), 6)
        for array in (values_only.eigenvalues, values_only.spectrum):
            assert not array.flags.writeable
        # the requested levels are a view of the head of the full spectrum
        assert np.shares_memory(values_only.eigenvalues, values_only.spectrum)
        assert np.array_equal(values_only.eigenvalues, values_only.spectrum[:3])

    def test_parity_labels(self):
        # harmonic levels alternate even, odd, even, ...; N + 1 levels are even
        result = solve(DescmProblem(HARMONIC, levels_requested=6), 30)
        assert result.parity[:6].tolist() == [1, -1, 1, -1, 1, -1]
        assert np.count_nonzero(result.parity == 1) == 31
        assert np.count_nonzero(result.parity == -1) == 30
        assert not result.parity.flags.writeable

    def test_full_spectrum_count(self):
        result = solve(DescmProblem(QUARTIC, levels_requested=11), 5)
        assert len(result.eigenvalues) == 11 == result.size

    def test_too_many_levels_rejected(self):
        with pytest.raises(ValueError):
            solve(DescmProblem(QUARTIC, levels_requested=12), 5)

    @pytest.mark.parametrize("parity", [1, -1])
    def test_one_block_result_is_self_consistent(self, parity):
        # N = 9: the even block has 10 levels, the odd block 9
        result = solve(DescmProblem(QUARTIC, levels_requested=2), 9, parity=parity)
        both = solve(DescmProblem(QUARTIC), 9)
        assert result.size == len(result.spectrum) == (10 if parity > 0 else 9)
        assert result.parity.tolist() == [parity] * result.size
        assert not result.parity.flags.writeable
        assert result.spectrum.tobytes() == both.spectrum[both.parity == parity].tobytes()
        assert np.array_equal(result.eigenvalues, result.spectrum[:2])
        assert np.all(np.diff(result.spectrum) >= 0.0)

    @pytest.mark.parametrize("levels", [2.5, 2.0, True])
    def test_levels_requested_that_is_not_an_integer_rejected(self, levels):
        # 2.5 and 2.0 once raised a bare TypeError from the spectrum slice,
        # and True was taken as 1
        with pytest.raises(ValueError) as info:
            DescmProblem(QUARTIC, levels_requested=levels)
        assert str(info.value) == f"levels_requested must be an integer, got {levels!r}"

    def test_numpy_integer_levels_requested_solves_as_the_int(self):
        expected = solve(DescmProblem(QUARTIC, levels_requested=2), 9)
        got = solve(DescmProblem(QUARTIC, levels_requested=np.int64(2)), 9)
        assert got.eigenvalues.tobytes() == expected.eigenvalues.tobytes()
        assert len(got.eigenvalues) == 2

    def test_levels_requested_checked_against_the_block_solved(self):
        solve(DescmProblem(QUARTIC, levels_requested=6), 5, parity=1)
        solve(DescmProblem(QUARTIC, levels_requested=5), 5, parity=-1)
        for levels, parity in ((7, 1), (6, -1)):
            with pytest.raises(ValueError, match=f"only {levels - 1} eigenvalues exist"):
                solve(DescmProblem(QUARTIC, levels_requested=levels), 5, parity=parity)

    @pytest.mark.parametrize("parity", [0, 2, -2, 1.0, -1.0, True, np.float64(1.0), "even"])
    def test_parity_other_than_none_or_plus_minus_one_rejected(self, parity):
        with pytest.raises(ValueError, match="parity must be None, \\+1 or -1"):
            solve(DescmProblem(QUARTIC), 5, parity=parity)
        with pytest.raises(ValueError, match="parity must be None, \\+1 or -1"):
            assemble_collocation_matrix(QUARTIC, 5, 0.3, parity)

    @pytest.mark.parametrize("parity", [1, -1])
    def test_one_block_vectors_are_its_unfolded_columns(self, parity):
        both = solve(DescmProblem(QUARTIC), 9, want_vectors=True)
        result = solve(DescmProblem(QUARTIC), 9, want_vectors=True, parity=parity)
        assert result.eigenvectors.shape == (19, result.size)
        assert result.eigenvectors.tobytes() == both.eigenvectors[:, both.parity == parity].tobytes()
        assert not result.eigenvectors.flags.writeable
        xs = np.array([-1.3, 0.4, 2.0])
        for level in range(result.size):
            full_level = int(np.flatnonzero(both.parity == parity)[level])
            assert (reconstruct_wavefunction(result, level, xs).tobytes()
                    == reconstruct_wavefunction(both, full_level, xs).tobytes())
        with pytest.raises(ValueError, match="level"):
            reconstruct_wavefunction(result, result.size, 0.0)

    @pytest.mark.parametrize("n", [0, -5])
    def test_half_width_below_one_rejected_before_the_level_count(self, n):
        # with the level count checked first, -5 read "only -9 eigenvalues exist"
        with pytest.raises(ValueError, match="half-width must be >= 1"):
            solve(DescmProblem(QUARTIC), n)

    def test_fixed_mesh_strategy(self):
        result = solve(DescmProblem(QUARTIC, strategy=MeshStrategy.fixed(0.1)), 10)
        assert result.h_used == 0.1

    @pytest.mark.xfail(
        strict=True,
        reason="fixed h = 1.5 at N = 30 puts collocation points out to |x| = 45, where the "
        "quartic diagonal reaches V(sinh 45) ~ 1e77; LAPACK's absolute error, about "
        "eps * ||A||, then swamps the low levels and the solve returns E_0 = -3.1e61, "
        "neither bounded below by min V = 0 nor rejected",
    )
    def test_fixed_mesh_far_out_is_bounded_below_or_rejected(self):
        problem = DescmProblem(QUARTIC, strategy=MeshStrategy.fixed(1.5), levels_requested=2)
        try:
            result = solve(problem, 30)
        except CollocationOverflowError:
            return
        assert result.eigenvalues[0] >= 0.0

    def test_harmonic_self_test(self):
        # E_n = 2n + 1 for the pure harmonic well
        result = solve(DescmProblem(HARMONIC, levels_requested=6), 30)
        for n in range(6):
            assert abs(result.eigenvalues[n] - (2 * n + 1)) <= 1e-8


def minimum_of(potential):
    """min V over the real line: V at x = 0 and at every real critical point
    x^2 = r > 0, r a root of V'(x)/(2x) = sum_i i c_i r^(i-1)."""
    slope = [i * c for i, c in enumerate(potential.coefficients, start=1)]
    roots = np.roots(slope[::-1]) if len(slope) > 1 else np.array([])
    squares = [r.real for r in roots if abs(r.imag) <= 1e-9 * abs(r) and r.real > 0.0]
    return min(float(potential(math.sqrt(r))) for r in [0.0, *squares])


class TestOneBlockResult:
    """A one-block solve slices its parity labels from a table that only
    grows, and flags the spectrum read-only once; neither may show in the
    result."""

    # both parities interleaved, N = 1 to past several widths of a fresh table
    ORDER = [(n, parity) for n in range(1, 41) for parity in (1, -1)]

    @staticmethod
    def problems(result, parity):
        expected = np.full(result.size, parity)
        found = []
        if result.parity.dtype != expected.dtype or not np.array_equal(result.parity, expected):
            found.append("labels")
        if any(a.flags.writeable for a in (result.eigenvalues, result.spectrum, result.parity)):
            found.append("writable")
        if not np.shares_memory(result.eigenvalues, result.spectrum):
            found.append("eigenvalues not a view")
        return found

    @pytest.mark.parametrize("threads", [1, 2])
    def test_labels_and_flags_from_a_fresh_label_table(self, monkeypatch, threads):
        monkeypatch.setattr(solver, "_labels", np.empty((2, 0), dtype=int))
        problem = DescmProblem(QUARTIC)
        failures, first = [], {}

        def work(t):
            order = self.ORDER if t == 0 else [(n, -p) for n, p in reversed(self.ORDER)]
            for n, parity in order:
                result = solve(problem, n, parity=parity)
                first.setdefault((t, parity), result)
                failures.extend((t, n, parity, f) for f in self.problems(result, parity))

        run_in_threads(work, threads)
        assert failures == []
        # a grown table replaces the old one, so earlier labels never change
        for (_, parity), result in first.items():
            assert self.problems(result, parity) == []
        assert solver._labels.shape[1] >= 41 and not solver._labels.flags.writeable

    def test_a_result_built_from_writable_arrays_comes_back_read_only(self):
        spectrum, labels, vectors = np.arange(5.0), np.array([1, -1, 1, -1, 1]), np.eye(5)
        result = solver.SpectrumResult(2, 0.5, spectrum[:2], spectrum, labels, 0.0, vectors)
        for array in (result.eigenvalues, result.spectrum, result.parity, result.eigenvectors):
            assert not array.flags.writeable
        assert result.eigenvalues.base is spectrum and result.parity is labels


class TestSeededProperties:
    @pytest.mark.parametrize("strategy", [MeshStrategy.optimal(), MeshStrategy.trace_minimized()])
    def test_ground_state_above_potential_minimum(self, rng, strategy):
        for _ in range(20):
            p = random_potential(rng, with_constant=True)
            floor = minimum_of(p)
            e0 = float(solve(DescmProblem(p, strategy=strategy), 30).spectrum[0])
            assert e0 >= floor - 1e-9 * max(1.0, abs(floor)), p

    @pytest.mark.parametrize("strategy", [MeshStrategy.optimal(), MeshStrategy.trace_minimized()])
    def test_spectrum_finite_and_ascending(self, rng, strategy):
        for _ in range(20):
            p = random_potential(rng, with_constant=True)
            n = int(rng.integers(1, 40))
            spectrum = solve(DescmProblem(p, strategy=strategy), n).spectrum
            assert len(spectrum) == 2 * n + 1
            assert np.isfinite(spectrum).all()
            assert (np.diff(spectrum) >= 0.0).all()

    def test_wavefunctions_are_normalized(self, rng):
        # single wells only: random_potential's negative inner coefficients
        # make deep double wells that N = 40 does not resolve
        xs = np.linspace(-12.0, 12.0, 1201)
        for _ in range(10):
            m = int(rng.integers(1, 6))
            p = EvenPolynomialPotential(tuple(rng.uniform(0.1, 2.0, size=m)),
                                        constant=float(rng.uniform(-1.0, 1.0)))
            for strategy in (MeshStrategy.optimal(), MeshStrategy.trace_minimized()):
                result = solve(DescmProblem(p, strategy=strategy), 40, want_vectors=True)
                for level in range(3):
                    psi = reconstruct_wavefunction(result, level, xs)
                    assert abs(np.trapezoid(psi**2, xs) - 1.0) <= 1e-12, (p, strategy, level)


class TestConverge:
    def test_quartic_stopping_behavior(self):
        trace = converge(DescmProblem(QUARTIC), level=0, tolerance=5e-12)
        assert trace.converged
        assert abs(trace.final.half_width - 17) <= 3
        assert trace.final.delta < 5e-12
        assert abs(trace.final.energy - QUARTIC_E0) <= 2e-11

    def test_deep_quartic_octic_well(self):
        p = EvenPolynomialPotential((-10.0, -10.0, -10.0, 10.0))
        trace = converge(DescmProblem(p), level=0, tolerance=5e-12)
        assert trace.converged
        assert abs(trace.final.half_width - 35) <= 5
        assert abs(trace.final.energy - -9.7139097706403668) <= 5e-10

    def test_delta_definition(self):
        trace = converge(DescmProblem(QUARTIC), level=0, tolerance=5e-12)
        assert trace.records[0].delta is None
        for prev, rec in zip(trace.records, trace.records[1:]):
            assert rec.half_width == prev.half_width + 1
            assert rec.delta == abs(prev.energy - rec.energy)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf])
    def test_non_finite_tolerance_rejected(self, tolerance):
        # nan never stops the sweep and inf stops it after any first difference
        with pytest.raises(ValueError, match="finite"):
            converge(DescmProblem(QUARTIC), level=0, tolerance=tolerance)

    def test_unconverged_trace_returned(self):
        trace = converge(DescmProblem(QUARTIC), level=0, tolerance=1e-30, n_max=6)
        assert not trace.converged
        assert trace.final.half_width == 6

    def test_sweep_past_n_max_names_its_first_truncation(self):
        # level 7 starts the sweep at N = ceil(7/2) = 4, not at n_start = 2
        with pytest.raises(ValueError, match=r"first truncation N = 4 exceeds n_max = 3"):
            converge(DescmProblem(QUARTIC), level=7, n_max=3)
        trace = converge(DescmProblem(QUARTIC), level=7, tolerance=1e-30, n_max=4)
        assert [r.half_width for r in trace.records] == [4]

    def test_high_level_starts_late_enough(self):
        trace = converge(DescmProblem(HARMONIC), level=9, tolerance=1e-8, n_max=40)
        assert trace.records[0].half_width >= 5
        assert trace.converged
        assert abs(trace.final.energy - 19.0) <= 1e-6

    def test_deterministic(self):
        a = converge(DescmProblem(QUARTIC), level=0)
        b = converge(DescmProblem(QUARTIC), level=0)
        assert a.records == b.records

    @pytest.mark.xfail(
        strict=True,
        reason="closed-form sweep stops early: poly:1.87,7.34 reports converged at N=11 "
        "with eps 1.5e-12, but that energy is 4.8e-9 away from a solve at N=21, which "
        "agrees with N=31 to 9.3e-14; the stopping rule stays as the published stop "
        "truncations pin it",
    )
    def test_converged_energy_matches_larger_truncation(self):
        problem = DescmProblem(EvenPolynomialPotential((1.87, 7.34)))
        trace = converge(problem, level=0, tolerance=5e-12)
        assert trace.converged
        reference = float(solve(problem, trace.final.half_width + 10).spectrum[0])
        assert abs(trace.final.energy - reference) <= 1e-10

    @pytest.mark.parametrize("level", [0, 1])
    def test_double_well_level_is_read_from_its_parity_block(self, level):
        # the lowest even and odd levels of poly:-20,1 change order between
        # truncations; level n is the lowest of the block of parity (-1)^n
        problem = DescmProblem(parse_potential("poly:-20,1"))
        trace = converge(problem, level=level)
        for record in trace.records:
            matrix = assemble_collocation_matrix(problem.potential, record.half_width, record.h)
            block = matrix.odd if level else matrix.even
            assert record.energy == np.linalg.eigvalsh(block)[0], record.half_width

    @pytest.mark.parametrize("strategy", [MeshStrategy.optimal(), MeshStrategy.trace_minimized()],
                             ids=["optimal", "trace-min"])
    def test_records_equal_the_two_block_sweep(self, strategy):
        # solving one block gives the very bits of that block's levels in a
        # solve of both; repr round-trips every float, so equal text is equal bits
        cases = [(EvenPolynomialPotential(c), 0) for name in (3, 4, 5, 6) for c in _TABLE_ROWS[name]]
        cases += [(parse_potential("poly:-20,1"), level) for level in range(4)]
        for p, level in cases:
            problem = DescmProblem(p, strategy=strategy)
            trace = converge(problem, level=level)
            assert repr(list(trace.records)) == repr(two_block_converge(problem, level)), (p, level)

    def test_levels_requested_plays_no_part(self):
        # the sweep reports one level, so a problem asking for more than the
        # first truncation holds still sweeps, to the same records
        many = converge(DescmProblem(QUARTIC, levels_requested=50), level=3)
        assert many.records == converge(DescmProblem(QUARTIC), level=3).records
        assert many.records[0].half_width == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            converge(DescmProblem(QUARTIC), tolerance=0.0)
        with pytest.raises(ValueError):
            converge(DescmProblem(QUARTIC), n_step=0)
        with pytest.raises(ValueError):
            converge(DescmProblem(QUARTIC), level=-1)

    @pytest.mark.parametrize("name, value", [("level", 2.0), ("level", 1.5), ("level", True),
                                             ("n_start", 2.5), ("n_step", 1.5), ("n_step", True),
                                             ("n_max", 30.0), ("n_max", "30")])
    def test_rejects_bounds_that_are_not_integers(self, name, value):
        # level 2.0 once read "parity must be None, +1 or -1, got 1.0", and
        # n_step 1.5 raised a bare TypeError
        with pytest.raises(ValueError) as info:
            converge(DescmProblem(QUARTIC), **{name: value})
        assert str(info.value) == f"{name} must be an integer, got {value!r}"
        if name == "level":
            # reconstruction once raised a bare IndexError at 1.5, and at True
            # "index 76 is out of bounds" on this 13-row result
            result = solve(DescmProblem(QUARTIC), 6, want_vectors=True)
            with pytest.raises(ValueError) as info:
                reconstruct_wavefunction(result, value, 0.0)
            assert str(info.value) == f"level must be an integer, got {value!r}"

    def test_numpy_integer_bounds_sweep_as_the_ints(self):
        bounds = dict(level=1, n_start=3, n_step=2, n_max=40)
        expected = converge(DescmProblem(QUARTIC), **bounds)
        got = converge(DescmProblem(QUARTIC), **{k: np.int64(v) for k, v in bounds.items()})
        assert hex_records(got.records) == hex_records(expected.records)
        assert got.converged == expected.converged

    @pytest.mark.parametrize("n_start", [0, -5])
    def test_rejects_start_below_one(self, n_start):
        with pytest.raises(ValueError, match=f"n_start must be >= 1, got {n_start}"):
            converge(DescmProblem(QUARTIC), n_start=n_start, n_max=3)


def hex_records(records):
    """Each record as the text of its N and the exact bits of its floats."""
    return [(r.half_width, r.h.hex(), r.energy.hex(), None if r.delta is None else r.delta.hex())
            for r in records]


def per_truncation_records(problem, level, tolerance, n_max, n_step):
    """``converge``'s records from plain ``solve(problem, n, parity=(-1)**level)``
    calls, one truncation at a time, under its stopping rule."""
    records, previous = [], None
    for n in range(max(2, math.ceil(level / 2)), n_max + 1, n_step):
        result = solve(problem, n, parity=(-1) ** level)
        energy = result.spectrum.item(level // 2)
        delta = None if previous is None else abs(previous - energy)
        records.append(ConvergenceRecord(n, result.h_used, energy, delta))
        previous = energy
        if delta is not None and delta < tolerance:
            break
    return records


def mid_block_n_max(level, n_step):
    """An n_max at which a sweep that does not stop first ends half way
    into its second block of planned truncations."""
    block = solver._SWEEP_BLOCK
    return max(2, math.ceil(level / 2)) + (block + block // 2) * n_step


# a fixed h whose sweeps stay finite to N = 40 on every well below
FIXED = MeshStrategy.fixed(0.27)


def swept_cases():
    """(potential, strategy, level, n_step, n_max) of every sweep checked
    against per-truncation solves: the catalog, the 40 table presets and
    poly:-20,1 with every combination of the closed-form and a fixed mesh,
    the 14 multiwell benchmark wells with every combination of the
    trace-min mesh, then 200 seeded wells, each with one drawn closed-form
    or fixed strategy, level, step and n_max."""
    named = [case.potential for case in analytic_catalog()]
    named += [EvenPolynomialPotential(c) for name in (3, 4, 5, 6) for c in _TABLE_ROWS[name]]
    named.append(parse_potential("poly:-20,1"))
    cases = [(p, strategy, level, n_step, n_max)
             for p in named for strategy in (MeshStrategy.optimal(), FIXED)
             for level in (0, 1, 3) for n_step in (1, 3)
             for n_max in (40, mid_block_n_max(level, n_step))]
    # the trace-min mesh on the 14 multiwell benchmark wells
    cases += [(parse_potential(spec), MeshStrategy.trace_minimized(), level, n_step, n_max)
              for spec in MULTIWELL_SPECS for level in (0, 1) for n_step in (1, 3)
              for n_max in (40, mid_block_n_max(level, n_step))]
    rng = random.Random(0x5EEB)
    for _ in range(200):
        m = rng.randint(1, 5)
        coefficients = [round(rng.uniform(-3.0, 3.0), 2) for _ in range(m - 1)]
        p = EvenPolynomialPotential((*coefficients, round(rng.uniform(0.3, 10.0), 2)))
        strategy, level = rng.choice((MeshStrategy.optimal(), FIXED)), rng.choice((0, 1, 3))
        n_step = rng.choice((1, 3))
        cases.append((p, strategy, level, n_step,
                      mid_block_n_max(level, n_step) if rng.random() < 0.5 else 40))
    return cases


# the AVX-512 features whose kernels numpy swaps for AVX2 ones when they are
# disabled; cosh, and with it every swept bit, differs between the two paths
AVX512_FEATURES = ("X86_V4", "AVX512_ICL", "AVX512_SPR")


def numpy_dispatches_avx512() -> bool:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return any(f in __cpu_dispatch__ and __cpu_features__.get(f) for f in AVX512_FEATURES)


class TestSweptBlocks:
    """A closed-form sweep evaluates the points of a block of truncations in
    one pass ahead of solving them; every record must keep the bits of a
    sweep that builds each truncation alone."""

    def test_records_equal_per_truncation_solves(self):
        stops = {"converged mid-block": 0, "n_max mid-block": 0, "trace-min mid-block": 0}
        for p, strategy, level, n_step, n_max in swept_cases():
            problem = DescmProblem(p, strategy=strategy)
            trace = converge(problem, level=level, n_step=n_step, n_max=n_max)
            swept = hex_records(trace.records)
            case = (p, strategy.kind, level, n_step, n_max)
            assert swept == hex_records(
                per_truncation_records(problem, level, 5e-12, n_max, n_step)), case
            assert swept == hex_records(
                two_block_converge(problem, level, n_max=n_max, n_step=n_step)), case
            if len(trace.records) % solver._SWEEP_BLOCK:
                stops["converged mid-block" if trace.converged else "n_max mid-block"] += 1
                stops["trace-min mid-block"] += strategy.kind == "trace-min"
        # both ways a sweep leaves a block unsolved are taken, many times over,
        # and trace-min sweeps leave searched truncations unsolved
        assert min(stops.values()) >= 50, stops

    @pytest.mark.skipif(not numpy_dispatches_avx512(),
                        reason="numpy dispatches none of X86_V4, AVX512_ICL, AVX512_SPR here, "
                        "so disabling them would not change its kernels")
    def test_records_equal_per_truncation_solves_on_numpy_avx2_kernels(self):
        # numpy's AVX2 cosh differs from its AVX-512 one in the last bit, so
        # the check above and the trace-min planned blocks' run again on that
        # path, in a process of its own
        src = Path(solver.__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(AVX512_FEATURES),
               "PYTHONPATH": path}
        tests = [f"{Path(__file__).resolve()}"
                 "::TestSweptBlocks::test_records_equal_per_truncation_solves",
                 f"{Path(__file__).resolve().with_name('test_assembly.py')}"
                 "::TestPlannedBlocks::test_trace_min_block_equals_its_truncations_alone"]
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests],
            env=env, capture_output=True, text=True, cwd=src.parent)
        assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
        assert "2 passed" in done.stdout

    def test_speculative_truncations_neither_raise_nor_warn(self):
        # at h = 20 the first non-finite diagonal is at N = 9 (t = kh = 180):
        # a sweep that stops at N = 8 plans a block beyond it, builds none of it
        problem = DescmProblem(QUARTIC, strategy=MeshStrategy.fixed(20.0))
        assert 9 in range(7, 7 + solver._SWEEP_BLOCK)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = converge(problem, n_start=7, tolerance=1e300)
        assert trace.converged
        assert [r.half_width for r in trace.records] == [7, 8]

    def test_overflow_is_raised_at_the_truncation_that_builds_it(self, monkeypatch):
        raw, solved = solver.solve, []
        monkeypatch.setattr(solver, "solve", lambda problem, n, *args, **kwargs: (
            solved.append(n) or raw(problem, n, *args, **kwargs)))
        problem = DescmProblem(QUARTIC, strategy=MeshStrategy.fixed(20.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CollocationOverflowError) as raised:
                converge(problem, n_start=4, tolerance=1e-300)
        assert str(raised.value) == (
            "non-finite matrix entry at collocation point t = kh = 180 (k = 9, h = 20)")
        assert solved == [4, 5, 6, 7, 8, 9]

    @staticmethod
    def failing_search(fail_at, early):
        """``mesh._search`` but for N = ``fail_at``, whose search raises: at
        once, as a scan of -inf does, or after one slope pass of its round."""
        raw = mesh._search

        def search(potential, n, scan):
            if n != fail_at:
                return (yield from raw(potential, n, scan))
            if not early:
                yield [mesh._FIRST_PASS[30]]
            raise CollocationOverflowError(f"made-up failure at N = {n}")

        return search

    @pytest.mark.parametrize("early", [True, False], ids=["at-once", "after-a-pass"])
    def test_trace_min_search_errors_wait_for_their_truncation(self, monkeypatch, early):
        problem = DescmProblem(parse_potential("poly:1,-4,1"),
                               strategy=MeshStrategy.trace_minimized())
        expected = hex_records(per_truncation_records(problem, 0, 5e-12, 100, 1))
        stop = expected[-1][0]
        fail_at = stop + 2  # in the block the stop plans, past the stop
        assert (stop - 2) // solver._SWEEP_BLOCK == (fail_at - 2) // solver._SWEEP_BLOCK
        block = range(fail_at - 3, fail_at + 3)
        alone = [trace_minimized_mesh_size(problem.potential, n) for n in block]
        monkeypatch.setattr(mesh, "_search", self.failing_search(fail_at, early))
        # the failed search leaves the others of its block, and of its
        # rounds, to pick their h
        planned = mesh_size_for(problem.potential, block, problem.strategy)
        assert [type(h) for h in planned] == [float] * 3 + [CollocationOverflowError] + [float] * 2
        assert [h.hex() for i, h in enumerate(planned) if i != 3] == [
            h.hex() for i, h in enumerate(alone) if i != 3]
        # a sweep that stops before it returns the records of one that
        # searches each truncation alone, and neither raises nor warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = converge(problem)
        assert trace.converged and hex_records(trace.records) == expected
        # a sweep that reaches it raises the search's error there
        raw, solved = solver.solve, []
        monkeypatch.setattr(solver, "solve", lambda problem, n, *args, **kwargs: (
            solved.append(n) or raw(problem, n, *args, **kwargs)))
        with pytest.raises(CollocationOverflowError) as raised:
            converge(problem, tolerance=1e-300)
        assert str(raised.value) == f"made-up failure at N = {fail_at}"
        assert solved == list(range(2, fail_at))

    def test_sweeps_share_no_state(self, monkeypatch):
        # each sweep keeps its own first-scan table: two wells' sweeps
        # advanced in turn, or run in two threads, give the bits of each
        # sweep alone and evaluate the scaled potential as often as the two
        # alone, and no sweep or plain choice reads a table an earlier one built
        scaled, raw = [], mesh.transformed_potential_scaled
        monkeypatch.setattr(mesh, "transformed_potential_scaled",
                            lambda *args: scaled.append(1) or raw(*args))
        problems = [DescmProblem(parse_potential(spec), strategy=MeshStrategy.trace_minimized())
                    for spec in ("poly:4,-6,1", "cheb:10;shift=-1")]

        def plan(problem):
            return solver._swept_slabs(problem, range(2, 101), -1)

        def hex_plan(steps):
            return [(h.hex(), entries.tobytes(), diagonal.tobytes())
                    for h, (entries, diagonal) in steps]

        def sweep(problem):
            return hex_records(converge(problem, level=1).records)

        def counted(run, *args):
            scaled.clear()
            return run(*args), len(scaled)

        plans = [counted(hex_plan, plan(p)) for p in problems]
        sweeps = [counted(sweep, p) for p in problems]
        # run again, each makes the same calls: no table outlives its sweep
        assert [counted(hex_plan, plan(p)) for p in problems] == plans
        assert [counted(sweep, p) for p in problems] == sweeps
        assert counted(trace_minimized_mesh_size, problems[1].potential, 2)[1] > 0
        scaled.clear()
        turns = list(zip(*[plan(p) for p in problems]))  # one step of each plan in turn
        assert [hex_plan(steps) for steps in zip(*turns)] == [got for got, _ in plans]
        assert len(scaled) == sum(calls for _, calls in plans)
        scaled.clear()
        got = [None] * len(problems)
        run_in_threads(lambda i: got.__setitem__(i, sweep(problems[i])), len(problems))
        assert got == [records for records, _ in sweeps]
        assert len(scaled) == sum(calls for _, calls in sweeps)

    def test_trace_min_sweep_of_a_minus_inf_trace_raises_at_its_first_truncation(self):
        potential = parse_potential(MINUS_INF_RISE)
        with pytest.raises(CollocationOverflowError) as alone:
            trace_minimized_mesh_size(potential, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CollocationOverflowError) as raised:
                converge(DescmProblem(potential, strategy=MeshStrategy.trace_minimized()))
        assert str(raised.value) == str(alone.value)


@pytest.fixture(scope="module")
def cheb40_sweep():
    """The trace-minimized ground-state sweep of cheb:40;shift=-1 to N = 300."""
    problem = DescmProblem(parse_potential("cheb:40;shift=-1"),
                           strategy=MeshStrategy.trace_minimized())
    return converge(problem, level=0, tolerance=5e-12, n_max=300)


class TestChebyshevHeadlineWells:
    """The ten-well of criterion 9 and cheb:40;shift=-1 under the
    trace-minimized mesh, held against true-value references."""

    def test_ten_well_ground_state_within_tolerance_of_its_limit(self):
        # the sweep stops at N = 85, 3.8e-12 above the limit, on a last
        # difference of 3.9e-12. The 40-digit block at N = 85 lies 8.0e-12
        # above it: float noise at these N, about 1e-11, puts this stop inside
        # the bound, and no difference in float64 certifies 5e-12
        problem = DescmProblem(chebyshev_well(20, -1.0), strategy=MeshStrategy.trace_minimized())
        trace = converge(problem, level=0, tolerance=5e-12, n_max=1000)
        assert trace.converged
        assert abs(trace.final.energy - TEN_WELL_E0_LIMIT) <= 5e-12

    def test_cheb40_successive_differences_keep_falling(self, cheb40_sweep):
        deltas = {r.half_width: r.delta for r in cheb40_sweep.records}
        assert deltas[100] == pytest.approx(4.4e-6, rel=0.02)
        assert deltas[150] == pytest.approx(1.1e-9, rel=0.02)
        # the largest difference of each ten truncations falls from N = 51 on
        peaks = [max(deltas[n] for n in range(a + 1, a + 11)) for a in range(50, 150, 10)]
        assert all(later < earlier for earlier, later in zip(peaks, peaks[1:]))

    @pytest.mark.xfail(
        strict=True,
        reason="cheb:40;shift=-1 stops at N = 218 with E_0 = 1.3171164238063695, 1.6e-10 above "
        "the N = 300 reference, on a difference of 3.5e-12 that the next truncation does not "
        "repeat (6.9e-11); the confirmation solve of ROADMAP item 2 would refuse this stop",
    )
    def test_cheb40_stop_agrees_with_a_far_larger_truncation(self, cheb40_sweep):
        assert cheb40_sweep.converged
        assert abs(cheb40_sweep.final.energy - CHEB40_E0_AT_300) <= 1e-10


class TestConvergenceShape:
    def test_monotone_tail_for_catalog(self):
        # within a half-decade jitter (and above the double-precision floor),
        # the error of the targeted level never climbs back up
        for case in analytic_catalog():
            floor = 1e-12
            best = math.inf
            for n in range(10, 41, 2):
                err = max(level_error(case.potential, case.level_index, case.exact_energy, n), floor)
                assert math.log10(err) <= math.log10(max(best, floor)) + 0.5, case.name
                best = min(best, err)

    def test_error_decays_against_n_over_log_n(self):
        for case in analytic_catalog():
            xs, ys = [], []
            for n in range(8, 29, 2):
                err = level_error(case.potential, case.level_index, case.exact_energy, n)
                if err < 1e-13:
                    break
                xs.append(n / math.log(n))
                ys.append(math.log(err))
            assert len(xs) >= 3
            slope = np.polyfit(xs, ys, 1)[0]
            assert slope < 0.0, case.name


class TestTraceMinimizedDominance:
    def test_five_well_chebyshev(self):
        five_well = chebyshev_well(10, -1.0)
        reference = converge(
            DescmProblem(five_well, strategy=MeshStrategy.trace_minimized()),
            level=0,
            tolerance=5e-12,
        )
        assert reference.converged
        exact = reference.final.energy
        for n in (15, 20, 25):
            err_tm = level_error(five_well, 0, exact, n, MeshStrategy.trace_minimized())
            err_opt = level_error(five_well, 0, exact, n, MeshStrategy.optimal())
            assert err_tm <= err_opt + 1e-12

    def test_triple_well_once_crossed_over(self):
        # the trace-minimized mesh overtakes the closed form from N = 16 on
        # for this potential (positional first-excited-level error)
        v2 = analytic_catalog()[1]
        for n in (20, 25):
            err_tm = level_error(v2.potential, 1, -9.0, n, MeshStrategy.trace_minimized())
            err_opt = level_error(v2.potential, 1, -9.0, n, MeshStrategy.optimal())
            assert err_tm <= err_opt + 1e-12


# Power-of-two rescaling (ROADMAP item 14). x = lambda y maps -d2/dx2 + sum c_i x^(2i)
# onto lambda^-2 (-d2/dy2 + sum c_i lambda^(2i+2) y^(2i)), so E_n(c) equals
# lambda^-2 E_n(c_i lambda^(2i+2)), and for lambda = 2^k every coefficient and
# energy maps exactly. Each case sweeps the rescaled well at tolerance
# 5e-12 * 4^k, and its stop over 4^k must meet the k = 0 sweep's within four
# tolerances, relative to max(1, |E|).
SCALED_WELLS = {"V1": analytic_catalog()[0].potential, "poly:1,1": QUARTIC,
                "poly:-20,1": EvenPolynomialPotential((-20.0, 1.0)),
                "table 4 poly:1,1,1": EvenPolynomialPotential(_TABLE_ROWS[4][1])}
SCALED_MESHES = {"optimal": MeshStrategy.optimal(), "trace-min": MeshStrategy.trace_minimized()}
# the only cases that hold at k = -6 and -12, found by running all 16 at each
HOLD_AT_2_TO_MINUS_6 = {("V1", level, "trace-min") for level in (0, 1)} | {
    ("poly:1,1", level, mesh) for level in (0, 1) for mesh in SCALED_MESHES} | {
    ("table 4 poly:1,1,1", 0, "trace-min"), ("table 4 poly:1,1,1", 1, "trace-min"),
    ("table 4 poly:1,1,1", 1, "optimal")}
HOLD_AT_2_TO_MINUS_12 = {("poly:1,1", 1, "optimal"), ("table 4 poly:1,1,1", 1, "optimal"),
                         ("table 4 poly:1,1,1", 1, "trace-min")}
CLOSED_FORM_STALLS = (
    "ROADMAP item 14: with c_m scaled by 2^(k(2m+2)), k >= 6, the closed form's W argument is "
    "small, h ~ 2^m pi^2 / sqrt(c_m) stops shrinking with N and the grid misses the state, so "
    "the sweep does not converge by N = 150 and its last E / 4^k is off by 0.2 or more relative")
SMALL_SCALE_STALLS = (
    "ROADMAP item 14: at 2^-6 the tolerance 5e-12 * 4^-6 lies below the rounding floor of "
    "poly:-20,1, which does not converge by N = 150, and three closed-form sweeps (V1 at "
    "levels 0 and 1, the table 4 preset at level 0) stop at an E / 4^k off by 2.1e-11 to "
    "7.1e-11 relative")
TINY_SCALE_STALLS = (
    "ROADMAP item 14: at 2^-12 the rounding floor eps * max|lambda| stays O(1) while E "
    "shrinks by 4^-12, so the sweep either does not converge by N = 150 or stops at an "
    "E / 4^k off by 2.8e-11 to 8.1e-10 relative")
TINIEST_SCALE_STALLS = (
    "ROADMAP item 14: at 2^-24 E shrinks by 4^-24 and the tolerance with it, far below the "
    "rounding floor, so no sweep converges by N = 150; the last E / 4^k is off by 1.6e-12 "
    "to 5.7e-3 relative")


def scaled_well(potential, k):
    """The well c_i -> c_i 2^(k(2i+2)), c_0 -> c_0 4^k, each coefficient exact."""
    return EvenPolynomialPotential(
        tuple(c * 2.0 ** (k * (2 * i + 2)) for i, c in enumerate(potential.coefficients, 1)),
        constant=potential.constant * 4.0**k)


@functools.cache
def scaled_sweep(name, level, mesh, k):
    problem = DescmProblem(scaled_well(SCALED_WELLS[name], k), SCALED_MESHES[mesh])
    return converge(problem, level, tolerance=5e-12 * 4.0**k, n_max=150)


def scaling_cases():
    for name in SCALED_WELLS:
        for level in (0, 1):
            for mesh in SCALED_MESHES:
                for k in (-24, -12, -6, -2, 2, 6, 12, 24):
                    reason = None
                    if k >= 6 and mesh == "optimal":
                        reason = CLOSED_FORM_STALLS
                    elif k == -6 and (name, level, mesh) not in HOLD_AT_2_TO_MINUS_6:
                        reason = SMALL_SCALE_STALLS
                    elif k == -12 and (name, level, mesh) not in HOLD_AT_2_TO_MINUS_12:
                        reason = TINY_SCALE_STALLS
                    elif k == -24:
                        reason = TINIEST_SCALE_STALLS
                    marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
                    yield pytest.param(name, level, mesh, k, marks=marks,
                                       id=f"{name}-level{level}-{mesh}-k{k}")


class TestPowerOfTwoScaling:
    @pytest.mark.parametrize("name, level, mesh, k", scaling_cases())
    def test_rescaled_sweep_stops_at_the_rescaled_energy(self, name, level, mesh, k):
        reference = scaled_sweep(name, level, mesh, 0)
        assert reference.converged
        trace = scaled_sweep(name, level, mesh, k)
        energy, expected = trace.final.energy / 4.0**k, reference.final.energy
        assert trace.converged, (trace.final.half_width, energy, expected)
        assert abs(energy - expected) <= 2e-11 * max(1.0, abs(expected)), (energy, expected)


class TestWavefunction:
    def test_harmonic_ground_state_value(self):
        result = solve(DescmProblem(HARMONIC), 30, want_vectors=True)
        assert abs(reconstruct_wavefunction(result, 0, 0.0) - math.pi**-0.25) <= 1e-6

    def test_decays_far_out(self):
        for case in analytic_catalog():
            problem = DescmProblem(case.potential, levels_requested=case.level_index + 1)
            result = solve(problem, 30, want_vectors=True)
            for x in (-6.0, 6.0):
                assert abs(reconstruct_wavefunction(result, case.level_index, x)) < 1e-4

    def test_ground_state_parity(self, rng):
        v1 = analytic_catalog()[0]
        result = solve(DescmProblem(v1.potential), 30, want_vectors=True)
        xs = rng.uniform(0.0, 3.0, size=20)
        left = reconstruct_wavefunction(result, 0, -xs)
        right = reconstruct_wavefunction(result, 0, xs)
        assert np.abs(left - right).max() <= 1e-8

    @pytest.mark.parametrize("spec", ["poly:1", "poly:1,1"])
    def test_odd_level_sign_is_stable_across_truncations(self, spec):
        # v[-k] = -v[k] up to rounding for an odd level; rounding must not
        # pick which side is made positive
        problem = DescmProblem(parse_potential(spec), levels_requested=4)
        results = [solve(problem, n, want_vectors=True) for n in range(10, 41)]
        for level in (1, 3):
            signs = {math.copysign(1.0, reconstruct_wavefunction(r, level, 0.7)) for r in results}
            assert len(signs) == 1, level

    @pytest.mark.parametrize("n", [30, 50])
    def test_double_well_doublet_is_one_even_and_one_odd_state(self, n):
        # the lowest pair of poly:-20,1 is 2.8e-14 apart; from one matrix of
        # size 2N+1 LAPACK returned each as a state localized in one well.
        # Which block's level is lower here is set by discretization error
        # (5e-8 at N = 30, 2e-13 at N = 50), so only the labels are pinned.
        problem = DescmProblem(parse_potential("poly:-20,1"), levels_requested=2)
        result = solve(problem, n, want_vectors=True)
        assert sorted(result.parity[:2].tolist()) == [-1, 1]
        for level in (0, 1):
            right, left = reconstruct_wavefunction(result, level, np.array([3.0, -3.0]))
            assert right == pytest.approx(result.parity[level] * left, rel=1e-10, abs=0.0)
            assert abs(right) > 0.5

    def test_zero_past_the_grid(self):
        # at N = 10 the quartic's grid ends at x = sinh(10 h) = 2.93; the
        # series used to extrapolate to 0.276 at 1e12 and -3.6e91 at 1e200
        result = solve(DescmProblem(QUARTIC), 10, want_vectors=True)
        edge = math.sinh(10 * result.h_used)
        far = [math.inf, -math.inf, 1e200, -1e200, 1e12, -1e12, 1.01 * edge, -1.01 * edge]
        for level in (0, 1):
            for x in far:
                assert reconstruct_wavefunction(result, level, x) == 0.0
            assert reconstruct_wavefunction(result, level, edge) != 0.0
            assert math.isnan(reconstruct_wavefunction(result, level, math.nan))

    def test_values_inside_the_grid_do_not_depend_on_points_outside(self, rng):
        # BLAS may round a row differently with the row count, so compare
        # arrays of the same length
        result = solve(DescmProblem(QUARTIC), 10, want_vectors=True)
        inside = rng.uniform(-2.9, 2.9, size=50)
        outside = np.array([math.inf, -1e200, 1e12, math.nan])
        mixed = reconstruct_wavefunction(result, 0, np.concatenate([inside, outside]))
        plain = reconstruct_wavefunction(result, 0, np.concatenate([inside, inside[:4]]))
        assert mixed[:50].tobytes() == plain[:50].tobytes()
        assert mixed[50:-1].tolist() == [0.0, 0.0, 0.0] and math.isnan(mixed[-1])

    def test_two_dimensional_x_keeps_its_shape(self, rng):
        # the same 4 points in one row, so BLAS rounds both calls alike
        result = solve(DescmProblem(QUARTIC), 10, want_vectors=True)
        flat = rng.uniform(-2.9, 2.9, size=4)
        grid = reconstruct_wavefunction(result, 0, flat.reshape(2, 2))
        assert grid.shape == (2, 2)
        assert grid.tobytes() == reconstruct_wavefunction(result, 0, flat).tobytes()
        assert isinstance(reconstruct_wavefunction(result, 0, np.float64(0.5)), float)

    def test_discrete_normalization(self):
        result = solve(DescmProblem(HARMONIC), 25, want_vectors=True)
        xs = np.linspace(-8.0, 8.0, 4001)
        psi = reconstruct_wavefunction(result, 0, xs)
        integral = np.trapezoid(psi**2, xs)
        assert integral == pytest.approx(1.0, abs=1e-5)

    def test_requires_vectors(self):
        result = solve(DescmProblem(HARMONIC), 10)
        with pytest.raises(ValueError):
            reconstruct_wavefunction(result, 0, 0.0)

    @pytest.mark.parametrize("level", [-1, 21])
    def test_rejects_level_outside_spectrum(self, level):
        # N = 10 has levels 0..20; -1 must not wrap round to the top level
        result = solve(DescmProblem(HARMONIC), 10, want_vectors=True)
        with pytest.raises(ValueError, match="level"):
            reconstruct_wavefunction(result, level, 0.0)
        assert math.isfinite(reconstruct_wavefunction(result, 20, 0.0))
