"""High-level driver: spectra at fixed truncation, convergence sweeps with a
successive-difference stopping rule, and wavefunction reconstruction.

A solve decomposes the even and the odd parity block of the collocation
matrix, one LAPACK call each, and merges the two spectra by a stable sort;
every level keeps the parity of its block. LAPACK is reached through the
gufuncs behind ``np.linalg.eigvalsh`` and ``eigh``, under numpy's own error
state entered once as a decorator: the same bits and the same
``LinAlgError``, without numpy's per-call Python checks, which a sweep of
small blocks would pay at every truncation. Asked for one parity, it
assembles and decomposes that block alone. A sweep identifies level n
across truncations by its parity block, and solves only that block: by the
oscillation theorem the n-th state of an even potential has n nodes and
parity (-1)^n, so it is entry n // 2 of the block of that parity at every N.
The n-th smallest of the merged spectrum would not do: on a double well the
two blocks' lowest levels change order between truncations, and a
positional sweep then compares an even state at one N with an odd one at
the next. The error proxy for level n is eps_n(N) = |E_n(N_prev) - E_n(N)|
between consecutive recorded truncations.

The trace-min h, like the closed-form and fixed ones, depends on the
potential and N alone, so a sweep plans its truncations ``_SWEEP_BLOCK``
at a time under every mesh, fewer where the block would pass
``_SWEEP_BLOCK_VALUES``. One ``mesh_size_for`` call picks the block's h
(for the trace-min mesh, one lockstep search of the block), and one pass
over a padded grid of their points builds the slabs of the swept parity
for all of them (``collocation_slabs``). Each ``solve`` then gets its h and
read-only views of its slab and diagonal. Its overflow check stays its
own, and a mesh choice that failed is raised only when the sweep reaches
its truncation, so a truncation past the stop never raises or warns. The
plan lives in the ``converge`` call alone. A plain ``solve`` is a block of
one: ``mesh_size_for`` picks the h of its one N, and the assembly builds
its slabs through ``collocation_slabs`` as well.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np
from numpy import sinc
from numpy.linalg import _umath_linalg

from .assembly import (
    assemble_collocation_matrix,
    check_half_width,
    check_integer,
    collocation_slabs,
    parity_blocks,
)
from .mesh import MeshStrategy, _ScanTable, mesh_size_for
from .potential import EvenPolynomialPotential


@dataclass(frozen=True)
class DescmProblem:
    """A potential, a mesh strategy, and how many levels to report."""

    potential: EvenPolynomialPotential
    strategy: MeshStrategy = MeshStrategy.optimal()
    levels_requested: int = 1

    def __post_init__(self):
        check_integer("levels_requested", self.levels_requested)
        if self.levels_requested < 1:
            raise ValueError("at least one level must be requested")


@dataclass(frozen=True)
class SpectrumResult:
    """Spectrum at one truncation; ``eigenvalues`` holds the requested levels.

    ``spectrum`` keeps every computed eigenvalue, ascending: all 2N+1 of both
    blocks, or the N+1 (even) or N (odd) of the one block solved.
    ``eigenvalues`` is a view of its head. ``parity`` labels each entry of
    ``spectrum``: +1 for a level of the even block, -1 for one of the odd
    block. ``eigenvectors`` (columns over k = -N..N matching ``spectrum``,
    each exactly even or odd) are present only when requested. All four are
    read-only: ``solve`` flags the spectrum it gets from LAPACK or the merge
    once, so its head is read-only too, and a one-block solve slices its
    labels from a read-only table; construction flags whatever array is
    still writable, such as one passed in by hand. ``wall_time`` covers the
    mesh choice, the assembly and the eigensolve of this truncation; for a
    truncation of a sweep, under any mesh, it leaves out its mesh choice
    (its share of the block's search, for the trace-min mesh) and its share
    of the block's slabs, both made ahead of the solve.
    """

    half_width: int
    h_used: float
    eigenvalues: np.ndarray
    spectrum: np.ndarray
    parity: np.ndarray
    wall_time: float
    eigenvectors: np.ndarray | None = None

    def __post_init__(self):
        for array in (self.eigenvalues, self.spectrum, self.parity, self.eigenvectors):
            if array is not None and array.flags.writeable:
                array.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.spectrum)


@dataclass(frozen=True)
class ConvergenceRecord:
    half_width: int
    h: float
    energy: float
    delta: float | None  # |E_n at previous recorded N - E_n here|; None first


@dataclass(frozen=True)
class ConvergenceTrace:
    """Full history of a sweep plus whether the stopping rule fired."""

    level: int
    tolerance: float
    records: tuple[ConvergenceRecord, ...]
    converged: bool

    @property
    def final(self) -> ConvergenceRecord:
        return self.records[-1]


def _eigenvalues_did_not_converge(err, flag):
    """numpy's own handler: the gufunc flags a failed LAPACK solve as invalid."""
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


# the error state np.linalg.eigvalsh and eigh enter around the same gufuncs;
# as a decorator it is built once, not on every call
@np.errstate(call=_eigenvalues_did_not_converge, invalid="call", over="ignore",
             divide="ignore", under="ignore")
def eigen_symmetric(matrix, want_vectors: bool = False):
    """Ascending eigenvalues of a real symmetric matrix, such as one parity
    block, and, if wanted, the orthonormal eigenvectors (column i pairs with
    eigenvalue i), else None.

    LAPACK is reached through the gufuncs that ``np.linalg.eigvalsh`` and
    ``eigh`` call, in double precision and under numpy's own error state, so
    the values and vectors are numpy's bit for bit and a solve that does not
    converge raises ``LinAlgError`` as numpy's does. numpy's Python layer
    around them (array wrapping, square and type checks, a fresh error
    state, casts) is skipped: about 3 us a call, 15-40% of the whole call on
    the 20- to 4-row blocks of a sweep. A matrix that is not square, or not
    at least 2-D, raises ``ValueError``.

    LAPACK reads only the lower triangle; ``assemble_collocation_matrix``
    builds every block exactly symmetric, which the tests pin bit for bit.
    """
    if want_vectors:
        return _umath_linalg.eigh_lo(matrix, signature="d->dd")
    return _umath_linalg.eigvalsh_lo(matrix, signature="d->d"), None


# The parity labels of a one-block solve, +1 in row 0 and -1 in row 1, each
# block's a read-only slice of its row. The table only grows, to at least
# twice its width, and is replaced whole, so a racing thread may build
# another but never sees one change.
_labels = np.empty((2, 0), dtype=int)


def _block_labels(parity: int, size: int) -> np.ndarray:
    """``size`` labels of the block of ``parity``, a read-only view."""
    global _labels
    table = _labels  # one read: a racing thread may swap in another
    if table.shape[1] < size:
        table = np.repeat(np.array([[1], [-1]]), max(size, 2 * table.shape[1]), axis=1)
        table.setflags(write=False)
        _labels = table
    return table[0 if parity > 0 else 1, :size]


def solve(
    problem: DescmProblem, half_width: int, want_vectors: bool = False, parity: int | None = None,
    _planned=None,
) -> SpectrumResult:
    """Assemble, decompose, and report the lowest requested levels at one N.

    With ``parity`` None both blocks are solved, and equal eigenvalues of the
    two merge even level first. With +1 or -1 only that block is assembled
    and solved, and the result holds its levels alone; they are the same
    bits as the levels of that parity in a solve of both.

    ``_planned``, private to ``converge``, is this N's mesh size and slabs,
    ``(h, slabs)``, from the sweep's block (see ``_swept_slabs``); the
    result's ``wall_time`` then leaves out this truncation's share of the
    block.
    """
    check_half_width(half_width)
    parities = parity_blocks(parity)
    size = len(parities) * half_width + (1 in parities)
    if problem.levels_requested > size:
        raise ValueError(
            f"{problem.levels_requested} levels requested but only {size} "
            f"eigenvalues exist at N = {half_width}"
        )
    start = time.perf_counter()
    if _planned is None:  # a block of one
        (h,) = mesh_size_for(problem.potential, (half_width,), problem.strategy)
        if isinstance(h, Exception):
            raise h
        _planned = h, None
    h, slabs = _planned
    matrix = assemble_collocation_matrix(problem.potential, half_width, h, parity, slabs)
    if parity is None:
        blocks = [eigen_symmetric(matrix.block(p), want_vectors) for p in parities]
        values = np.concatenate([block_values for block_values, _ in blocks])
        order = values.argsort(kind="stable")
        spectrum, labels = values[order], np.where(order <= half_width, 1, -1)
        vectors = None
        if want_vectors:
            unfolded = [matrix.unfold(v, p) for (_, v), p in zip(blocks, parities)]
            vectors = np.hstack(unfolded)[:, order]
    else:  # one block: ascending already
        spectrum, vectors = eigen_symmetric(matrix.block(parity), want_vectors)
        if want_vectors:
            vectors = matrix.unfold(vectors, parity)
        labels = _block_labels(parity, size)
    spectrum.setflags(write=False)  # and with it the head below
    return SpectrumResult(half_width, h, spectrum[: problem.levels_requested], spectrum, labels,
                          time.perf_counter() - start, vectors)


# Truncations a sweep plans at a time. Their mesh sizes depend on the
# potential and N alone, so one call picks them all and one pass builds
# their slabs; a truncation past the stop wastes its mesh choice and its
# slab (3.1 trace-min searches a sweep over the 42 multiwell benchmark
# sweeps of seeds 1-3, 131 past 1774 solved). Measured on closed-form
# sweeps of the 40 table 3-6 presets and 2 early-stop wells (892
# truncations solved), blocks of 4, 8 and 16 plan 948, 1048 and 1280
# truncations; with one pass over a block's points and the slabs built per
# truncation, they ran the 42 library sweeps 9.1%, 14.0% and 16.4% faster
# than one pass per truncation built inside its own assembly (best of 12
# alternating rounds), and the CLI benchmark `sweep-optimal` read 1031, 1093
# and 1109 tasks/s against 961 (medians of three 20 s runs; two Xeon cores,
# one BLAS thread). Past 8 the gain was within the runs' spread, while the
# truncations wasted grow from 156 to 388.
_SWEEP_BLOCK = 8
# Values a block's padded slabs may hold, about 1 MB, as the CLI caps a
# trace-scan call: past N = 127 a block plans fewer truncations, and a block
# of one may hold more, as a plain solve of that truncation does.
_SWEEP_BLOCK_VALUES = 1 << 17


def _swept_slabs(problem: DescmProblem, half_widths: range, parity: int):
    """``solve``'s ``_planned`` for each truncation of a sweep of the block
    of ``parity``, in order: (h, slabs), the mesh sizes of the next block of
    up to ``_SWEEP_BLOCK`` truncations picked by one ``mesh_size_for`` call
    and their slabs built in one pass when the last block runs out. A
    generator, so a sweep that stops plans no further block; a mesh choice
    that failed raises here when the sweep reaches its truncation. Every
    block's trace-min search reads the sweep's one first-scan table."""
    potential, strategy, scan = problem.potential, problem.strategy, _ScanTable()
    start = 0
    while start < len(half_widths):
        block = half_widths[start : start + _SWEEP_BLOCK]
        while len(block) > 1 and len(block) * (block[-1] + 1) ** 2 > _SWEEP_BLOCK_VALUES:
            block = block[:-1]
        mesh_sizes = mesh_size_for(potential, block, strategy, _scan=scan)
        # a failed choice, an exception, gets a slab built on NaN, never read
        sizes = [h if isinstance(h, float) else math.nan for h in mesh_sizes]
        for h, size, slabs in zip(mesh_sizes, sizes,
                                  collocation_slabs(potential, block, sizes, parity)):
            if h is not size:
                raise h
            yield h, slabs
        start += len(block)


def converge(
    problem: DescmProblem,
    level: int = 0,
    tolerance: float = 5e-12,
    n_step: int = 1,
    n_max: int = 100,
    n_start: int = 2,
) -> ConvergenceTrace:
    """Sweep N upward until the successive difference of level ``level``,
    entry ``level // 2`` of the block of parity (-1)^level, drops below
    ``tolerance``; never raises on non-convergence, the returned trace says
    so instead. Each truncation assembles and solves that block alone, so
    the problem's ``levels_requested`` plays no part. The sweep picks the
    mesh sizes of up to ``_SWEEP_BLOCK`` truncations in one call and builds
    their slabs in one pass ahead of solving them; a truncation past the
    stop is never checked, and its mesh choice's error is never raised, so
    it neither raises nor warns."""
    if not (0.0 < tolerance < math.inf):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    for name, value in dict(level=level, n_start=n_start, n_step=n_step, n_max=n_max).items():
        check_integer(name, value)
    if n_step < 1:
        raise ValueError("n_step must be >= 1")
    if n_start < 1:
        raise ValueError(f"n_start must be >= 1, got {n_start}")
    if level < 0:
        raise ValueError("level must be >= 0")
    first = max(n_start, math.ceil(level / 2))
    if first > n_max:
        raise ValueError(f"empty sweep: the first truncation N = {first} exceeds n_max = {n_max}")
    parity, index = (-1) ** level, level // 2
    problem = replace(problem, levels_requested=index + 1)
    records: list[ConvergenceRecord] = []
    previous: float | None = None
    converged = False
    half_widths = range(first, n_max + 1, n_step)
    for n, planned in zip(half_widths, _swept_slabs(problem, half_widths, parity)):
        result = solve(problem, n, parity=parity, _planned=planned)
        energy = result.spectrum.item(index)
        delta = None if previous is None else abs(previous - energy)
        records.append(ConvergenceRecord(n, result.h_used, energy, delta))
        previous = energy
        if delta is not None and delta < tolerance:
            converged = True
            break
    return ConvergenceTrace(
        level=level,
        tolerance=tolerance,
        records=tuple(records),
        converged=converged,
    )


def reconstruct_wavefunction(result: SpectrumResult, level: int, x):
    """Evaluate the normalized eigenfunction of ``level`` at x, a scalar or any array.

    The collocation eigenvector is rescaled so that h * sum z_k^2 = 1, the
    discrete analogue of unit L2 norm of the original wavefunction under the
    sinh substitution, and its overall sign is fixed so the value at the
    collocation point k >= 0 carrying the largest weight is positive. Each
    vector comes from one parity block, so v[-k] = parity * v[k] bit for bit
    and the eigenfunction is exactly even or odd, near-degenerate doublets
    such as the lowest pair of ``poly:-20,1`` included.

    Past the outermost collocation point, |x| > sinh(Nh), the series would
    only extrapolate, so the value there is 0; a NaN x gives NaN.
    """
    if result.eigenvectors is None:
        raise ValueError("solve(..., want_vectors=True) is required for reconstruction")
    check_integer("level", level)
    if not 0 <= level < result.size:
        raise ValueError(f"level must lie in [0, {result.size - 1}], got {level}")
    n = result.half_width
    h = result.h_used
    z = result.eigenvectors[:, level] / math.sqrt(h)
    k = np.arange(-n, n + 1)
    v = z / np.cosh(k * h)
    if v[n + int(np.argmax(np.abs(v[n:])))] < 0.0:
        v = -v
    x = np.asarray(x, dtype=float)
    t = np.arcsinh(x.ravel())
    outside = np.abs(t) > n * h
    t[outside] = 0.0
    cardinal = sinc((t[:, None] - k[None, :] * h) / h) @ v
    psi = cardinal * np.sqrt(np.cosh(t))
    psi[outside] = 0.0
    return float(psi[0]) if x.ndim == 0 else psi.reshape(x.shape)
