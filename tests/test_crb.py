import dataclasses

import numpy as np
import pytest

from tomoments import (
    PARAMETERS,
    SingularFimError,
    SourceProfile,
    covariance_derivatives,
    crb_stddev,
    fisher_information,
    make_uniform_array,
    true_covariance,
)

from .conftest import REFERENCE_NOISE

# reference-scenario bounds at N=1000 snapshots, frozen from this
# implementation after checking the finite-difference consistency of the
# analytic derivatives feeding the information matrix
FROZEN_CRB_N1000 = {
    "uniform": {
        "z0": 0.06953033276797592,
        "sigma_z": 0.054206591965073485,
        "P": 2.315846298710059,
        "sigma_eps2": 0.1590658777808056,
    },
    "gaussian": {
        "z0": 0.08431482424082126,
        "sigma_z": 0.06738694877319945,
        "P": 2.345750144305375,
        "sigma_eps2": 0.16999902553150212,
    },
}


def _numeric_derivative(profile, array, sigma_eps2, name):
    steps = {"z0": 1e-5, "sigma_z": 1e-5, "P": 1e-3, "sigma_eps2": 1e-5}
    h = steps[name]
    if name == "sigma_eps2":
        plus = true_covariance(profile, array, sigma_eps2 + h).matrix
        minus = true_covariance(profile, array, sigma_eps2 - h).matrix
    else:
        plus = true_covariance(
            dataclasses.replace(profile, **{name: getattr(profile, name) + h}),
            array,
            sigma_eps2,
        ).matrix
        minus = true_covariance(
            dataclasses.replace(profile, **{name: getattr(profile, name) - h}),
            array,
            sigma_eps2,
        ).matrix
    return (plus - minus) / (2.0 * h)


@pytest.mark.parametrize("shape", ["uniform", "gaussian"])
@pytest.mark.parametrize("name", PARAMETERS)
def test_derivatives_match_finite_differences(shape, name, reference_array):
    profile = SourceProfile(shape, 10.0, 5.0, 100.0)
    analytic = covariance_derivatives(profile, reference_array, REFERENCE_NOISE)[name]
    numeric = _numeric_derivative(profile, reference_array, REFERENCE_NOISE, name)
    np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-6)


def test_derivatives_are_hermitian(uniform_profile, reference_array):
    for D in covariance_derivatives(uniform_profile, reference_array, REFERENCE_NOISE).values():
        np.testing.assert_allclose(D, D.conj().T, rtol=0, atol=1e-14)


def test_point_profile_rejected(point_profile, reference_array):
    with pytest.raises(ValueError):
        covariance_derivatives(point_profile, reference_array, REFERENCE_NOISE)
    with pytest.raises(ValueError):
        fisher_information(point_profile, reference_array, REFERENCE_NOISE, 100)


def test_fim_symmetric_positive_definite(uniform_profile, reference_array):
    fim = fisher_information(uniform_profile, reference_array, REFERENCE_NOISE, 1000)
    np.testing.assert_allclose(fim, fim.T, rtol=0, atol=0)
    assert np.linalg.eigvalsh(fim)[0] > 0.0


def test_fim_linear_in_snapshots(uniform_profile, reference_array):
    fim_1k = fisher_information(uniform_profile, reference_array, REFERENCE_NOISE, 1000)
    fim_2k = fisher_information(uniform_profile, reference_array, REFERENCE_NOISE, 2000)
    np.testing.assert_allclose(fim_2k, 2.0 * fim_1k, rtol=1e-12)


def test_fim_snapshot_validation(uniform_profile, reference_array):
    with pytest.raises(ValueError):
        fisher_information(uniform_profile, reference_array, REFERENCE_NOISE, 0)
    with pytest.raises(ValueError):
        fisher_information(uniform_profile, reference_array, REFERENCE_NOISE, 1.5)


@pytest.mark.parametrize("shape", ["uniform", "gaussian"])
def test_frozen_bounds(shape, reference_array):
    profile = SourceProfile(shape, 10.0, 5.0, 100.0)
    fim = fisher_information(profile, reference_array, REFERENCE_NOISE, 1000)
    result = crb_stddev(fim)
    assert type(result) is dict and tuple(result) == PARAMETERS
    for name, expected in FROZEN_CRB_N1000[shape].items():
        assert result[name] == pytest.approx(expected, rel=1e-9)


def test_n_scale_rescales_bounds(uniform_profile, reference_array):
    fim = fisher_information(uniform_profile, reference_array, REFERENCE_NOISE, 1000)
    base = np.array(list(crb_stddev(fim).values()))
    quarter = np.array(list(crb_stddev(fim, n_scale=4.0).values()))
    np.testing.assert_allclose(quarter, base / 2.0, rtol=1e-12)
    fim_4000 = fisher_information(uniform_profile, reference_array, REFERENCE_NOISE, 4000)
    np.testing.assert_allclose(quarter, list(crb_stddev(fim_4000).values()), rtol=1e-12)


def test_zero_spread_is_not_identifiable(reference_array):
    profile = SourceProfile("gaussian", 10.0, 0.0, 100.0)
    with pytest.raises(SingularFimError):
        fisher_information(profile, reference_array, REFERENCE_NOISE, 1000)


def test_two_channel_array_underdetermined():
    # M=2 leaves three real covariance degrees of freedom for four parameters
    array = make_uniform_array(2, 100.0)
    profile = SourceProfile("gaussian", 10.0, 5.0, 100.0)
    fim = fisher_information(profile, array, REFERENCE_NOISE, 1000)
    with pytest.raises(SingularFimError):
        crb_stddev(fim)


def test_crb_stddev_validation(uniform_profile, reference_array):
    with pytest.raises(ValueError):
        crb_stddev(np.eye(3))
    fim = fisher_information(uniform_profile, reference_array, REFERENCE_NOISE, 1000)
    with pytest.raises(ValueError):
        crb_stddev(fim, n_scale=0.0)
