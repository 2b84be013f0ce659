import os
import sys
import threading

import numpy as np
import pytest

from descm import EvenPolynomialPotential


def pytest_report_header(config):
    """The numpy kernels the run used: several goldens and bit-for-bit tests
    hold only on the SIMD path they were pinned on, so a failure names it."""
    simd = np.show_config(mode="dicts").get("SIMD Extensions", {})
    kernels = "; ".join(f"{key}: {', '.join(value)}" for key, value in simd.items())
    disabled = os.environ.get("NPY_DISABLE_CPU_FEATURES")
    return (f"numpy {np.__version__}; SIMD {kernels or 'unknown'}; "
            f"NPY_DISABLE_CPU_FEATURES={disabled if disabled is not None else '(unset)'}")


@pytest.fixture
def rng():
    return np.random.default_rng(0xDE5C)


def random_potential(rng, max_half_degree=5, with_constant=False) -> EvenPolynomialPotential:
    """A random valid even potential with bounded coefficients."""
    m = int(rng.integers(1, max_half_degree + 1))
    coeffs = rng.uniform(-2.0, 2.0, size=m)
    coeffs[-1] = rng.uniform(0.1, 2.0)
    constant = float(rng.uniform(-1.0, 1.0)) if with_constant else 0.0
    return EvenPolynomialPotential(tuple(coeffs), constant=constant)


# the 14 wells of the multiwell-tracemin benchmark (seed 1), whose sweeps
# take the trace-minimized mesh
MULTIWELL_SPECS = (
    "poly:1,-4,1", "poly:4,-6,1", "poly:1.640625,-5.375,1,-1,1", "poly:2.640625,-7.375,1,-1,1",
    "poly:-20,1", "cheb:10;shift=-1", "cheb:20;shift=-1", "poly:0.1,0.1,0.1,0.1,0.1",
    "poly:0.1,0.1,-1,-1,1", "poly:-10,-10,-10,-10,10", "cheb:40;shift=-1", "poly:-15.28,1",
    "cheb:8;shift=-0.97", "poly:4.97,-4.85,1",
)
# V' lies below the double range, so its trace-min slope rises from -inf and
# places no zero, and the scanned traces reach -inf: every search raises
MINUS_INF_RISE = "poly:3.32e-266,-8.74e-62,-8.99e-93,5.07e-249"


def run_in_threads(work, count):
    """Run work(0), ..., work(count - 1) in as many threads, switching every
    microsecond so that they interleave finely; every thread must end within
    a minute."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
