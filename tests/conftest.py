import numpy as np
import pytest

from tomoments import SourceProfile, make_uniform_array, true_covariance

# scenario used throughout the benchmark figures
REFERENCE_Z0 = 10.0
REFERENCE_SIGMA_Z = 5.0
REFERENCE_P = 100.0
REFERENCE_NOISE = 10.0

# non-uniform wavenumber stacks (rad/m) with the height interval searched on
# each: they have no common period, so z0_max must be given
IRREGULAR_STACKS = {
    "M5": ((0.0, 0.031, 0.077, 0.102, 0.19), 140.0),
    "M6": ((0.0, 0.035, 0.081, 0.097, 0.158, 0.21), 120.0),
    "M7-signed": ((-0.06, -0.021, 0.0, 0.044, 0.052, 0.1, 0.139), 100.0),
}


@pytest.fixture(scope="session")
def reference_array():
    return make_uniform_array(7, 100.0)


@pytest.fixture(scope="session")
def uniform_profile():
    return SourceProfile("uniform", REFERENCE_Z0, REFERENCE_SIGMA_Z, REFERENCE_P)


@pytest.fixture(scope="session")
def gaussian_profile():
    return SourceProfile("gaussian", REFERENCE_Z0, REFERENCE_SIGMA_Z, REFERENCE_P)


@pytest.fixture(scope="session")
def point_profile():
    return SourceProfile("point", REFERENCE_Z0, 0.0, REFERENCE_P)


@pytest.fixture(scope="session")
def reference_covariance(uniform_profile, reference_array):
    return true_covariance(uniform_profile, reference_array, REFERENCE_NOISE)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260817)
