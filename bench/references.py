"""Inputs and reference values the benchmark pins in its own files.

The presets are copied rather than imported from ``descm.cli`` so that a
refactor of the package cannot silently change what the benchmark runs.
Published values come from the source paper (Gaudreau, Slevinsky, Safouhi,
arXiv:1411.2089); exact values are analytic.
"""

# Tables 3-6 of the paper: ground-state stopping runs over coefficient grids
# of the x^2..x^4, x^2..x^6, x^2..x^8 and x^2..x^10 families (coefficients of
# x^2, x^4, ...).
TABLE_PRESETS = (
    (0.1, 0.1), (0.1, 1), (1, 1), (1, 10), (10, 10),
    (-0.1, 0.1), (-0.1, 1), (-1, 1), (-1, 10), (-10, 10),
    (0.1, 0.1, 0.1), (1, 1, 1), (0.1, 1, 10), (1, 10, 10), (10, 10, 10),
    (-0.1, 0.1, 0.1), (1, -1, 1), (-0.1, -1, 10), (-1, 10, 10), (10, -10, 10),
    (0.1, 0.1, 0.1, 0.1), (0.1, 1, 10, 10), (1, 1, 10, 10), (1, 10, 10, 10),
    (10, 10, 10, 10), (-0.1, 0.1, -0.1, 0.1), (0.1, -1, 10, 10),
    (-1, -1, 10, 10), (1, 10, -10, 10), (-10, -10, -10, 10),
    (0.1, 0.1, 0.1, 0.1, 0.1), (0.1, 0.1, 1, 1, 1), (1, 1, 1, 10, 10),
    (1, 10, 10, 10, 10), (10, 10, 10, 10, 10), (-0.1, -0.1, 0.1, 0.1, 0.1),
    (0.1, 0.1, -1, -1, 1), (-1, 1, 1, -10, 10), (1, -10, -10, 10, 10),
    (-10, -10, -10, -10, 10),
)

# Published converged ground-state energies for rows of tables 4-6.
PUBLISHED_GROUND = {
    (0.1, 0.1, 0.1): 0.76469531499643029,
    (1, 1, 1): 1.6148940820343036,
    (10, 10, 10): 3.8948206179865981,
    (1, -1, 1): 1.2022669303165900,
    (10, -10, 10): 2.9588710692969618,
    (0.1, 0.1, 0.1, 0.1): 0.92287072386834434,
    (1, 10, 10, 10): 2.9458972541841404,
    (0.1, -1, 10, 10): 2.2867765902246440,
    (1, 10, -10, 10): 2.3756889547019138,
    (-10, -10, -10, 10): -9.7139097706403668,
    (0.1, 0.1, 0.1, 0.1, 0.1): 1.0520482472987258,
    (1, 10, 10, 10, 10): 3.0275420892666491,
    (0.1, 0.1, -1, -1, 1): 0.86187455263857027,
    (1, -10, -10, 10, 10): 1.0275704201029547,
    (-10, -10, -10, -10, 10): -22.446238129792420,
}

# The quartic x^2 + x^4: published ground state.
QUARTIC_SPEC = "poly:1,1"
QUARTIC_GROUND = 1.392351641530291855

# Criterion 3: the decic -x^2 + 3x^4 - 2x^6 + 0.1x^10, three lowest levels,
# each with the tolerance the paper's digits support.
DECIC_SPEC = "poly:-1,3,-2,0,0.1"
DECIC_LEVELS = (
    (-0.0962919462309655, 1e-10),
    (0.672993242745170, 1e-10),
    (3.111022328724715, 1e-9),
)

# The four supersymmetric wells with one exactly known level each:
# (name, spec, level index, exact energy). V3 and V4 use the exact binary
# expansions of 105/64, -43/8, 169/64 and -59/8.
ANALYTIC_CASES = (
    ("V1", "poly:1,-4,1", 0, -2.0),
    ("V2", "poly:4,-6,1", 1, -9.0),
    ("V3", "poly:1.640625,-5.375,1,-1,1", 0, 0.375),
    ("V4", "poly:2.640625,-7.375,1,-1,1", 1, 1.125),
)

# Sweeps that fail their check today, with the reason. Such a task still
# runs, is timed and is checked like any other; a failed check counts in
# failed_frac as a known failure, not in the run's unexpected failures.
KNOWN_FAILURES = {
    "cheb:40;shift=-1": "monomial evaluation of T_40 loses ~3e-2, so the "
    "trace-minimized sweep stalls at eps ~2.8e-6 and reaches N_max",
    "poly:1.87,7.34": "successive-difference stop fires early at N=11, "
    "4.8e-9 from the converged level",
    "poly:-0.54,-1.74,1.68,1.35": "successive-difference stop fires early, "
    "1.8e-9 from the converged level",
}

# Single wells on which the closed-form sweep stops early: E(N-1) and E(N)
# agree to < 5e-12 while both are still ~5e-9 off. Found by seeded draws of
# the sweep-optimal family (2 in 2400 sweeps) and pinned so the defect shows
# in every run.
EARLY_STOP_CASES = ("poly:1.87,7.34", "poly:-0.54,-1.74,1.68,1.35")

# A seeded single well that hits the same defect fails as a known failure,
# not an unexpected one: its closed-form sweep converged, its energy misses
# the reference by more than SWEEP_TOL but by at most EARLY_STOP_MAX_MISS,
# and that reference agrees with a solve 10 truncations further still. About
# 1 in 1600 seeded sweeps does (1 in 400 seeds).
EARLY_STOP_DEFECT = "successive-difference stop fires early, as in EARLY_STOP_CASES"
EARLY_STOP_MAX_MISS = 1e-7

# Absolute tolerance of a converged sweep against its reference, scaled by
# max(1, |E|); the sweeps stop at a successive difference of 5e-12.
SWEEP_TOL = 1e-9
# Tolerance of each large-N level against the solve at REFERENCE_N, scaled
# by max(1, |E|), and of each reconstructed wavefunction's norm against 1.
SPECTRUM_TOL = 1e-9
NORM_TOL = 1e-6
# Harmonic ground state psi_0(x) = pi^(-1/4) exp(-x^2/2) on the grid.
HARMONIC_PSI_TOL = 1e-8
