"""High-level driver: spectra at fixed truncation, convergence sweeps with a
successive-difference stopping rule, and wavefunction reconstruction.

Eigenvalue identification across truncations is positional (the n-th
smallest at each N); the error proxy for level n is
eps_n(N) = |E_n(N_prev) - E_n(N)| between consecutive recorded truncations.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from numpy import sinc

from .assembly import assemble_collocation_matrix
from .mesh import MeshStrategy, mesh_size_for
from .potential import EvenPolynomialPotential


@dataclass(frozen=True)
class DescmProblem:
    """A potential, a mesh strategy, and how many levels to report."""

    potential: EvenPolynomialPotential
    strategy: MeshStrategy = MeshStrategy.optimal()
    levels_requested: int = 1

    def __post_init__(self):
        if self.levels_requested < 1:
            raise ValueError("at least one level must be requested")


@dataclass(frozen=True)
class SpectrumResult:
    """Spectrum at one truncation; ``eigenvalues`` holds the requested levels.

    ``spectrum`` keeps all 2N+1 computed eigenvalues. ``eigenvectors``
    (columns matching ``spectrum``) are present only when requested.
    """

    half_width: int
    h_used: float
    eigenvalues: np.ndarray
    spectrum: np.ndarray
    wall_time: float
    eigenvectors: np.ndarray | None = None

    def __post_init__(self):
        self.spectrum.setflags(write=False)
        if self.eigenvectors is not None:
            self.eigenvectors.setflags(write=False)

    @property
    def size(self) -> int:
        return 2 * self.half_width + 1


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


def eigen_symmetric(matrix, want_vectors: bool = False):
    """Ascending eigenvalues of a symmetric matrix and, if wanted, the
    orthonormal eigenvectors (column i pairs with eigenvalue i), else None.

    LAPACK reads only the lower triangle; ``assemble_collocation_matrix``
    builds the matrix exactly symmetric, which the tests pin bit for bit.
    """
    if want_vectors:
        return np.linalg.eigh(matrix)
    return np.linalg.eigvalsh(matrix), None


def solve(problem: DescmProblem, half_width: int, want_vectors: bool = False) -> SpectrumResult:
    """Assemble, decompose, and report the lowest requested levels at one N."""
    size = 2 * half_width + 1
    if problem.levels_requested > size:
        raise ValueError(
            f"{problem.levels_requested} levels requested but only {size} "
            f"eigenvalues exist at N = {half_width}"
        )
    start = time.perf_counter()
    h = mesh_size_for(problem.potential, half_width, problem.strategy)
    matrix = assemble_collocation_matrix(problem.potential, half_width, h)
    spectrum, vectors = eigen_symmetric(matrix.entries, want_vectors=want_vectors)
    elapsed = time.perf_counter() - start
    return SpectrumResult(
        half_width=half_width,
        h_used=h,
        eigenvalues=spectrum[: problem.levels_requested].copy(),
        spectrum=spectrum,
        wall_time=elapsed,
        eigenvectors=vectors,
    )


def converge(
    problem: DescmProblem,
    level: int = 0,
    tolerance: float = 5e-12,
    n_step: int = 1,
    n_max: int = 100,
    n_start: int = 2,
) -> ConvergenceTrace:
    """Sweep N upward until the successive difference of level ``level`` drops
    below ``tolerance``; never raises on non-convergence, the returned trace
    says so instead."""
    if not (0.0 < tolerance < math.inf):
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    if n_step < 1:
        raise ValueError("n_step must be >= 1")
    if level < 0:
        raise ValueError("level must be >= 0")
    first = max(n_start, 1, math.ceil(level / 2))
    records: list[ConvergenceRecord] = []
    previous: float | None = None
    converged = False
    for n in range(first, n_max + 1, n_step):
        result = solve(problem, n)
        energy = float(result.spectrum[level])
        delta = None if previous is None else abs(previous - energy)
        records.append(
            ConvergenceRecord(half_width=n, h=result.h_used, energy=energy, delta=delta)
        )
        previous = energy
        if delta is not None and delta < tolerance:
            converged = True
            break
    if not records:
        raise ValueError(f"empty sweep: n_start={n_start}, n_max={n_max}")
    return ConvergenceTrace(
        level=level,
        tolerance=tolerance,
        records=tuple(records),
        converged=converged,
    )


def reconstruct_wavefunction(result: SpectrumResult, level: int, x):
    """Evaluate the normalized eigenfunction of ``level`` at x (scalar or array).

    The collocation eigenvector is rescaled so that h * sum z_k^2 = 1, the
    discrete analogue of unit L2 norm of the original wavefunction under the
    sinh substitution, and its overall sign is fixed so the value at the
    collocation point k >= 0 carrying the largest weight is positive. Only
    k >= 0 is searched: an odd level has v[-k] = -v[k] up to rounding, so a
    search over both sides would let rounding pick the sign. Near-degenerate
    doublets such as those of ``poly:-20,1`` still come back from LAPACK as
    arbitrary mixtures of the even and odd state, which no sign rule fixes.
    """
    if result.eigenvectors is None:
        raise ValueError("solve(..., want_vectors=True) is required for reconstruction")
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
    scalar = x.ndim == 0
    t = np.arcsinh(np.atleast_1d(x))
    cardinal = sinc((t[:, None] - k[None, :] * h) / h) @ v
    psi = cardinal * np.sqrt(np.cosh(t))
    return float(psi[0]) if scalar else psi
