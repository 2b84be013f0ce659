import math
import warnings

import numpy as np
import pytest

from descm import (
    CollocationOverflowError,
    DescmProblem,
    EvenPolynomialPotential,
    MeshStrategy,
    SincWeights,
    analytic_catalog,
    assemble_collocation_matrix,
    assembly,
    collocation_trace,
    converge,
    optimal_mesh_size,
    parse_potential,
    solve,
    solver,
    trace_minimized_mesh_size,
)
from descm.mesh import mesh_size_for
from conftest import MINUS_INF_RISE, MULTIWELL_SPECS, random_potential
from oracles import (assemble_generalized_pair, fd_second_derivative, full_collocation_matrix,
                     full_slab_collocation_matrix, lockstep_trace_minimized_mesh_size,
                     mp_block_eigenvalues, parity_blocks_by_index, sinc_basis)

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

    def test_one_block_is_that_slab_alone_bit_for_bit(self):
        for p, n, h in block_cases():
            both = assemble_collocation_matrix(p, n, h)
            for slab, parity in enumerate((1, -1)):
                one = assemble_collocation_matrix(p, n, h, parity)
                assert one.parities == (parity,)
                assert one.entries.shape == (1, n + 1, n + 1)
                assert one.entries.tobytes() == both.entries[slab].tobytes(), (p, n, parity)
                assert one.block(parity).tobytes() == both.block(parity).tobytes()
                assert not one.entries.flags.writeable

    def test_blocks_from_a_grown_numerator_table_equal_a_reset_one_bit_for_bit(self, monkeypatch):
        for p, n, h in block_cases():
            for parity in (None, 1, -1):
                monkeypatch.setattr(assembly, "_numerators", np.empty((2, 0, 0)))
                fresh = assemble_collocation_matrix(p, n, h, parity)
                assert assembly._numerators.shape == (2, n + 1, n + 1)
                assembly._parity_numerators(2 * max(BLOCK_SIZES))  # well past N
                grown = assemble_collocation_matrix(p, n, h, parity)
                assert grown.parities == fresh.parities
                assert grown.entries.tobytes() == fresh.entries.tobytes(), (p, n, parity)

    def test_numerator_table_grows_to_at_least_double_and_never_shrinks(self, monkeypatch):
        monkeypatch.setattr(assembly, "_numerators", np.empty((2, 0, 0)))
        for n, width in [(3, 4), (4, 8), (2, 8), (7, 8), (8, 16), (40, 41), (1, 41)]:
            previous = assembly._numerators.shape[1]
            assemble_collocation_matrix(QUARTIC, n, 0.5, 1)
            assert assembly._numerators.shape == (2, width, width)
            assert n + 1 <= width <= max(n + 1, 2 * previous)
            assert not assembly._numerators.flags.writeable

    @pytest.mark.parametrize("strategy", [MeshStrategy.optimal(), MeshStrategy.trace_minimized()],
                             ids=["optimal", "trace-min"])
    def test_weights_are_built_only_when_the_numerator_table_grows(self, monkeypatch, strategy):
        # the numerator table is the one cache of the weights: a sweep builds
        # them once per growth, and a repeated sweep never
        monkeypatch.setattr(assembly, "_numerators", np.empty((2, 0, 0)))
        built = []
        build = SincWeights.second_derivative
        monkeypatch.setattr(SincWeights, "second_derivative",
                            classmethod(lambda cls, n: built.append(n) or build(n)))
        problem = DescmProblem(parse_potential("poly:4,-6,1"), strategy=strategy)
        trace = converge(problem, level=3)
        solved = [record.half_width for record in trace.records]
        # each planned block's largest N, blocks begun only, under either mesh
        planned = range(solved[0], 101)
        needs = [planned[i : i + solver._SWEEP_BLOCK][-1]
                 for i in range(0, len(solved), solver._SWEEP_BLOCK)]
        width, expected = 0, []
        for n in needs:
            if n >= width:
                width = max(n + 1, 2 * width)
                expected.append(width - 1)
        assert len(expected) >= 3
        assert built == expected
        built.clear()
        assert converge(problem, level=3) == trace
        assert built == []

    @pytest.mark.parametrize("strategy", [MeshStrategy.optimal(), MeshStrategy.trace_minimized()],
                             ids=["optimal", "trace-min"])
    def test_one_block_solve_equals_its_levels_of_both(self, strategy):
        for p in BLOCK_WELLS:
            for n in BLOCK_SIZES:
                both = solve(DescmProblem(p, strategy=strategy), n)
                for parity in (1, -1):
                    one = solve(DescmProblem(p, strategy=strategy), n, parity=parity)
                    assert one.h_used == both.h_used, (p, n, parity)
                    expected = both.spectrum[both.parity == parity]
                    assert one.spectrum.tobytes() == expected.tobytes(), (p, n, parity)

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

    @pytest.mark.parametrize("strategy", [MeshStrategy.optimal(), MeshStrategy.trace_minimized()],
                             ids=["optimal", "trace-min"])
    def test_lowest_levels_match_40_digit_blocks(self, strategy):
        # each block's three lowest levels against the same block built from
        # the closed-form entries and solved at 40 digits
        for p in BLOCK_WELLS:
            result = solve(DescmProblem(p, strategy=strategy), 12)
            for parity in (1, -1):
                exact = np.array(mp_block_eigenvalues(p, 12, result.h_used, parity))
                got = result.spectrum[result.parity == parity][:3]
                assert np.abs(got - exact[:3]).max() <= 4 * EPS * np.abs(exact).max(), (p, parity)

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


def planned_cases():
    """(potential, half_widths, mesh sizes) of planned blocks: blocks of
    ``solver._SWEEP_BLOCK`` truncations from N = 1, 2 and 30 at steps 1 and
    3 on every block well, each truncation at its closed-form h."""
    for p in BLOCK_WELLS:
        for first in (1, 2, 30):
            for n_step in (1, 3):
                half_widths = range(first, first + solver._SWEEP_BLOCK * n_step, n_step)
                yield p, half_widths, [optimal_mesh_size(p, n) for n in half_widths]


def assert_planned_equals_alone(potential, half_widths, mesh_sizes, parity):
    """Each truncation's views of a planned block hold the bits of that
    truncation built alone, are read-only, and assemble to its matrix, or
    raise its overflow; returns the truncations that overflow."""
    planned = assembly.collocation_slabs(potential, half_widths, mesh_sizes, parity)
    assert len(planned) == len(half_widths)
    overflowing = []
    for n, h, (entries, diagonal) in zip(half_widths, mesh_sizes, planned):
        case = (potential, n, h, parity)
        assert not entries.flags.writeable and not diagonal.flags.writeable, case
        try:
            alone = assemble_collocation_matrix(potential, n, h, parity)
        except CollocationOverflowError as error:
            with pytest.raises(CollocationOverflowError) as raised:
                assemble_collocation_matrix(potential, n, h, parity, (entries, diagonal))
            assert str(raised.value) == str(error), case
            overflowing.append(n)
            continue
        assert entries.shape == alone.entries.shape, case
        assert entries.tobytes() == alone.entries.tobytes(), case
        expected = np.diagonal(alone.entries, axis1=1, axis2=2)
        assert diagonal.tobytes() == expected.tobytes(), case
        matrix = assemble_collocation_matrix(potential, n, h, parity, (entries, diagonal))
        assert matrix.parities == alone.parities
        assert matrix.entries.tobytes() == alone.entries.tobytes(), case
    return overflowing


def trace_min_planned_blocks():
    """(spec, half_widths) of planned trace-min blocks of
    ``solver._SWEEP_BLOCK`` truncations at steps 1 and 3: from N = 1, 2 and
    30 on the 14 multiwell benchmark wells, and from N = 1, 2 and 100 on
    wells whose searches take the rare paths: several rises
    (cheb:20;shift=-1 at N = 1, 2), a moved slice (cheb:40;shift=-1 at
    N = 100), widened windows (poly:1e10,1e10 at N = 100, poly:1e308 and
    poly:1e-300) and a trace of -inf at every N."""
    rare = ("cheb:20;shift=-1", "cheb:40;shift=-1", "poly:1e10,1e10", "poly:1e308",
            "poly:1e-300", MINUS_INF_RISE)
    for specs, firsts in ((MULTIWELL_SPECS, (1, 2, 30)), (rare, (1, 2, 100))):
        for spec in specs:
            for first in firsts:
                for n_step in (1, 3):
                    yield spec, range(first, first + solver._SWEEP_BLOCK * n_step, n_step)


def mesh_size_or_error(potential, n):
    """The trace-min h at N alone, or the text of the exception it raised."""
    try:
        return trace_minimized_mesh_size(potential, n)
    except CollocationOverflowError as error:
        return f"CollocationOverflowError: {error}"


class TestPlannedBlocks:
    """``collocation_slabs`` builds a block of truncations' slabs in one pass
    over a padded grid; every truncation must keep the bits it has alone."""

    @pytest.mark.parametrize("parity", [1, -1, None])
    def test_every_truncation_equals_its_build_alone(self, parity):
        for p, half_widths, mesh_sizes in planned_cases():
            assert assert_planned_equals_alone(p, half_widths, mesh_sizes, parity) == []

    def test_trace_min_block_equals_its_truncations_alone(self):
        # one lockstep search picks the block's h, and one pass builds its
        # slabs: each h is the search at that N alone, and the lockstep
        # oracle's, in float.hex, and each slab that truncation's alone
        trace_min, failed = MeshStrategy.trace_minimized(), 0
        potentials = {}
        for spec, half_widths in trace_min_planned_blocks():
            p = potentials.setdefault(spec, parse_potential(spec))
            planned = mesh_size_for(p, half_widths, trace_min)
            assert len(planned) == len(half_widths)
            mesh_sizes = []
            for n, h in zip(half_widths, planned):
                alone = mesh_size_or_error(p, n)
                if isinstance(h, Exception):
                    assert isinstance(h, CollocationOverflowError), (spec, n)
                    assert f"CollocationOverflowError: {h}" == alone, (spec, n)
                    failed += 1
                    continue
                assert type(h) is float and h.hex() == alone.hex(), (spec, n)
                assert h.hex() == lockstep_trace_minimized_mesh_size(p, n).hex(), (spec, n)
                mesh_sizes.append((n, h))
            if mesh_sizes:
                solved, sizes = zip(*mesh_sizes)
                for parity in (1, -1, None):
                    assert assert_planned_equals_alone(p, solved, sizes, parity) == []
        # the -inf well's searches each raise, and only they do
        assert failed == 6 * solver._SWEEP_BLOCK

    @pytest.mark.parametrize("parity", [1, -1, None])
    def test_overflowing_truncations_leave_the_finite_ones_bit_equal(self, parity):
        # at a fixed h = 20, kh = 180 overflows the diagonal from N = 9 on,
        # so the block from N = 7 holds inf and NaN past N = 8, in its padding
        # and in the truncations it plans past the stop of a sweep
        half_widths = range(7, 7 + solver._SWEEP_BLOCK)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            overflowing = assert_planned_equals_alone(QUARTIC, half_widths,
                                                      [20.0] * len(half_widths), parity)
        assert overflowing == list(half_widths[2:])

    def test_closed_form_sweep_never_plans_a_block_past_the_cap(self, monkeypatch):
        blocks = []
        raw = solver.collocation_slabs
        monkeypatch.setattr(solver, "collocation_slabs", lambda potential, half_widths, *args: (
            blocks.append(list(half_widths)) or raw(potential, half_widths, *args)))
        # a tolerance no sweep meets, so it plans every truncation to n_max
        trace = converge(DescmProblem(QUARTIC), tolerance=1e-300, n_step=7, n_max=400)
        assert not trace.converged
        assert [n for block in blocks for n in block] == list(range(2, 401, 7))
        cap, most = solver._SWEEP_BLOCK_VALUES, solver._SWEEP_BLOCK
        for block in blocks:
            assert len(block) == 1 or len(block) * (block[-1] + 1) ** 2 <= cap, block
            assert len(block) <= most, block
        # the cap binds: fewer than _SWEEP_BLOCK truncations at large N, down
        # to one whose slab alone holds more than the cap
        assert any(1 < len(block) < most for block in blocks[:-1])
        assert (blocks[-1][-1] + 1) ** 2 > cap and len(blocks[-1]) == 1


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

    @pytest.mark.parametrize("parity", [1, -1, None])
    @pytest.mark.parametrize("spec, n, h", [
        ("poly:1,1", 3, 1e308),  # kh overflows from k = 2 on, and h*h
        ("poly:1,1", 1, 1e308),
        ("poly:1,1", 3, 1e-170),  # h*h underflows to 0
        ("poly:1,1", 3, 1e-320),  # a subnormal h
        ("poly:1e-300", 40, 20.0),  # cosh overflows from k = 36 on
        ("poly:1,1", 300, 2.3),
        ("poly:1,1", 12, 0.3),  # finite
    ])
    def test_diagonal_check_raises_where_the_full_slab_check_does(self, spec, n, h, parity):
        self.assert_checks_agree(parse_potential(spec), n, h, parity)

    @pytest.mark.parametrize("parity", [1, -1, None])
    def test_diagonal_check_agrees_where_the_kinetic_term_overflows(self, parity):
        # h*h = c / max float: diagonal entry k overflows for c below its
        # numerator's size, pi^2/3 +- 1/(2k^2) (pi^2/3 at k = 0 of E), and an
        # entry off it for c below 4/sqrt(2) at most, so for c between those
        # bounds only diagonal entries overflow
        biggest = np.finfo(float).max
        rng = np.random.default_rng(0x51AB)
        for c in [2.0, 2.5, 2.78, 2.8, 2.82, 2.84, 3.0, 3.28, 3.3, 3.5, 3.78, 3.8, 5.0,
                  *rng.uniform(2.0, 4.0, size=20)]:
            for n in (1, 2, 7):
                self.assert_checks_agree(QUARTIC, n, math.sqrt(c / biggest), parity)

    @pytest.mark.parametrize("spec, n, h, parity", [
        ("poly:1e308", 1, 1.0, None),  # 1.38e308 on each block's diagonal
        ("poly:1.3e308", 2, 0.48, 1),  # 3.2e307 and 1.59e308
        ("poly:1.3e308", 2, 0.48, -1),
    ])
    def test_finite_diagonal_whose_sum_overflows_is_not_reported(self, spec, n, h, parity):
        matrix = assemble_collocation_matrix(parse_potential(spec), n, h, parity)
        diagonal = np.diagonal(matrix.entries, axis1=1, axis2=2)
        assert np.isfinite(matrix.entries).all()
        with np.errstate(over="ignore"):
            assert diagonal.sum() == math.inf
        self.assert_checks_agree(parse_potential(spec), n, h, parity)

    @staticmethod
    def assert_checks_agree(potential, n, h, parity):
        try:
            expected = full_slab_collocation_matrix(potential, n, h, parity)
        except CollocationOverflowError as error:
            with pytest.raises(CollocationOverflowError) as info:
                assemble_collocation_matrix(potential, n, h, parity)
            assert str(info.value) == str(error), (n, h, parity)
        else:
            matrix = assemble_collocation_matrix(potential, n, h, parity)
            assert matrix.entries.tobytes() == expected.tobytes(), (n, h, parity)

    def test_overflow_message_names_t(self):
        with pytest.raises(CollocationOverflowError) as info:
            assemble_collocation_matrix(QUARTIC, 3, 1e308, -1)
        assert str(info.value) == ("non-finite matrix entry at collocation point "
                                   "t = kh = inf (k = 3, h = 1e+308)")

    @pytest.mark.parametrize("n", [2.5, 3.0, np.float64(3.0), True, np.bool_(True), "3", None],
                             ids=repr)
    def test_truncation_that_is_not_an_integer_gets_the_shared_rule(self, n):
        # 2.5 once raised a TypeError from the mesh choice in solve, and the
        # trace, the closed form and a solve at N = True answered
        with pytest.raises(ValueError) as shared:
            assembly.check_half_width(n)
        assert str(shared.value) == f"truncation half-width must be an integer, got {n!r}"
        for call in (lambda: assemble_collocation_matrix(QUARTIC, n, 0.3),
                     lambda: collocation_trace(QUARTIC, n, 0.3),
                     lambda: optimal_mesh_size(QUARTIC, n),
                     lambda: trace_minimized_mesh_size(QUARTIC, n),
                     lambda: solve(DescmProblem(QUARTIC), n)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == str(shared.value)

    @pytest.mark.parametrize("n", [np.int64(3), np.int32(3)], ids=repr)
    def test_numpy_integer_truncation_solves_as_the_int(self, n):
        for strategy in (MeshStrategy.optimal(), MeshStrategy.trace_minimized()):
            got = solve(DescmProblem(QUARTIC, strategy), n, want_vectors=True)
            expected = solve(DescmProblem(QUARTIC, strategy), 3, want_vectors=True)
            assert got.h_used.hex() == expected.h_used.hex()
            assert got.spectrum.tobytes() == expected.spectrum.tobytes()
            assert got.eigenvectors.tobytes() == expected.eigenvectors.tobytes()

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            assemble_collocation_matrix(QUARTIC, 0, 0.1)
        for h in (-0.1, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                assemble_collocation_matrix(QUARTIC, 3, h)

    @pytest.mark.parametrize("h", [-0.1, 0.0, -0.0, math.nan, math.inf, -math.inf,
                                   np.float64(-1.0), np.float64(math.nan), 0, -2])
    def test_bad_mesh_size_gets_the_shared_rule_and_message(self, h):
        with pytest.raises(ValueError) as shared:
            assembly.check_mesh_size(h)
        with pytest.raises(ValueError) as info:
            assemble_collocation_matrix(QUARTIC, 3, h, 1)
        assert str(info.value) == str(shared.value)

    def test_mesh_size_that_is_not_a_float_is_checked_by_the_shared_rule(self):
        for h in (np.float64(0.3), 1, np.array(0.3)):
            matrix = assemble_collocation_matrix(QUARTIC, 3, h, 1)
            expected = assemble_collocation_matrix(QUARTIC, 3, float(h), 1)
            assert matrix.entries.tobytes() == expected.entries.tobytes()
