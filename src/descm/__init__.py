"""Double-exponential Sinc collocation for even-polynomial anharmonic
oscillators: spectra, convergence sweeps, mesh-size selection, and
wavefunction reconstruction."""

from .assembly import (
    CollocationMatrix,
    CollocationOverflowError,
    assemble_collocation_matrix,
    transformed_potential_scaled,
)
from .mesh import (
    MeshStrategy,
    collocation_trace,
    lambert_w0,
    optimal_mesh_size,
    trace_minimized_mesh_size,
)
from .potential import (
    AnalyticCase,
    EvenPolynomialPotential,
    PotentialSpecError,
    analytic_catalog,
    chebyshev_well,
    parse_potential,
)
from .sinc_basis import SincWeights
from .solver import (
    ConvergenceRecord,
    ConvergenceTrace,
    DescmProblem,
    SpectrumResult,
    converge,
    reconstruct_wavefunction,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyticCase",
    "CollocationMatrix",
    "CollocationOverflowError",
    "ConvergenceRecord",
    "ConvergenceTrace",
    "DescmProblem",
    "EvenPolynomialPotential",
    "MeshStrategy",
    "PotentialSpecError",
    "SincWeights",
    "SpectrumResult",
    "analytic_catalog",
    "assemble_collocation_matrix",
    "chebyshev_well",
    "collocation_trace",
    "converge",
    "lambert_w0",
    "optimal_mesh_size",
    "parse_potential",
    "reconstruct_wavefunction",
    "solve",
    "trace_minimized_mesh_size",
    "transformed_potential_scaled",
]
