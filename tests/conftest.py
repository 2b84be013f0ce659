import os

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
