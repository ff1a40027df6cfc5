import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomoments import (
    CovarianceModel,
    SourceProfile,
    central_moment,
    characteristic_function,
    density,
    make_uniform_array,
    shape_characteristic,
    shape_matrix,
    true_covariance,
)
from tomoments.profiles import _char_fn_sigma_derivative

from .oracles import central_moment_quadrature, characteristic_function_quadrature

# closed form for the uniform shape at sigma_z = 5 on the reference array,
# pinned by the quadrature oracle: sinc(sqrt(3) * 5 * 2 pi / 100)
UNIFORM_B01 = 0.951377417000912


def test_characteristic_function_reference_values():
    gaussian = SourceProfile("gaussian", 0.0, 5.0, 1.0)
    uniform = SourceProfile("uniform", 0.0, 5.0, 1.0)
    # exp(-0.5 * 25 * 0.04) and sin(1.7321)/1.7321
    assert characteristic_function(gaussian, 0.2) == pytest.approx(math.exp(-0.5), rel=1e-12)
    a = math.sqrt(3.0) * 5.0
    assert characteristic_function(uniform, 0.2) == pytest.approx(
        math.sin(0.2 * a) / (0.2 * a), rel=1e-12
    )
    assert characteristic_function(uniform, 0.2) == pytest.approx(0.5699, abs=5e-5)
    point = SourceProfile("point", 3.0, 0.0, 2.0)
    assert characteristic_function(point, 1.23) == pytest.approx(1.0, rel=0)


@pytest.mark.parametrize("shape", ["gaussian", "uniform"])
def test_characteristic_function_matches_quadrature(shape):
    profile = SourceProfile(shape, 4.0, 3.5, 10.0)
    for xi in (0.0, 0.05, 0.2, 0.7, 1.5):
        oracle = characteristic_function_quadrature(profile, xi)
        value = characteristic_function(profile, xi)
        assert value == pytest.approx(oracle.real, abs=1e-9)
        assert abs(oracle.imag) < 1e-9  # centered shapes are symmetric


def test_characteristic_function_zero_spread_limit():
    for shape in ("gaussian", "uniform"):
        profile = SourceProfile(shape, 0.0, 0.0, 1.0)
        np.testing.assert_allclose(
            characteristic_function(profile, np.array([0.0, 0.3, 2.0])), 1.0, rtol=0, atol=1e-15
        )


def test_central_moment_reference_values():
    gaussian = SourceProfile("gaussian", 0.0, 5.0, 1.0)
    uniform = SourceProfile("uniform", 0.0, 5.0, 1.0)
    assert central_moment(gaussian, 2) == pytest.approx(25.0, rel=1e-12)
    assert central_moment(uniform, 2) == pytest.approx(25.0, rel=1e-12)
    assert central_moment(gaussian, 4) == pytest.approx(1875.0, rel=1e-12)
    assert central_moment(uniform, 4) == pytest.approx(1125.0, rel=1e-12)
    for d in (1, 3, 5):
        assert central_moment(gaussian, d) == 0.0
        assert central_moment(uniform, d) == 0.0


@pytest.mark.parametrize("shape", ["gaussian", "uniform"])
@pytest.mark.parametrize("d", [0, 1, 2, 3, 4, 5, 6])
def test_central_moment_matches_quadrature(shape, d):
    profile = SourceProfile(shape, -2.0, 2.75, 1.0)
    oracle = central_moment_quadrature(profile, d)
    assert central_moment(profile, d) == pytest.approx(oracle, rel=1e-8, abs=1e-10)


@pytest.mark.parametrize("shape", ["gaussian", "uniform"])
def test_density_normalization_and_moments(shape):
    profile = SourceProfile(shape, 7.0, 4.0, 50.0)
    assert central_moment_quadrature(profile, 0) == pytest.approx(1.0, rel=1e-10)
    assert central_moment_quadrature(profile, 1) == pytest.approx(0.0, abs=1e-10)
    assert central_moment_quadrature(profile, 2) == pytest.approx(16.0, rel=1e-10)


def test_density_point_raises():
    with pytest.raises(ValueError):
        density(SourceProfile("point", 0.0, 0.0, 1.0), 0.0)
    with pytest.raises(ValueError):
        density(SourceProfile("uniform", 0.0, 0.0, 1.0), 0.0)


def test_source_profile_validation():
    with pytest.raises(ValueError):
        SourceProfile("uniform", 0.0, 5.0, 0.0)
    with pytest.raises(ValueError):
        SourceProfile("uniform", 0.0, -1.0, 10.0)
    with pytest.raises(ValueError):
        SourceProfile("point", 0.0, 2.0, 10.0)
    with pytest.raises(ValueError):
        SourceProfile("triangular", 0.0, 2.0, 10.0)


def test_booleans_are_not_heights_spreads_or_powers(reference_array):
    # float(True) == 1.0: each of these used to build a profile or covariance
    for args in (("uniform", True, 5.0, 100.0), ("uniform", 0.0, True, 100.0), ("uniform", 0.0, 5.0, True)):
        with pytest.raises(ValueError):
            SourceProfile(*args)
    with pytest.raises(ValueError):
        SourceProfile.from_json({"shape": "point", "z0": True, "sigma_z": 0.0, "P": 1.0})
    profile = SourceProfile("uniform", 10.0, 5.0, 100.0)
    with pytest.raises(ValueError):
        true_covariance(profile, reference_array, True)


@pytest.mark.parametrize("shape", ["point", "uniform", "gaussian"])
def test_shape_characteristic_is_the_profile_closed_form(shape):
    # one call over a sigma grid gives, row by row, the characteristic function
    # of each profile bit for bit
    xi = np.linspace(-0.4, 0.4, 9)
    sigmas = np.array([0.0]) if shape == "point" else np.linspace(0.0, 30.0, 7)
    grid = shape_characteristic(shape, sigmas[:, None], xi)
    assert grid.shape == (sigmas.size, xi.size) and grid.dtype == np.float64
    for row, sigma in zip(grid, sigmas):
        expected = characteristic_function(SourceProfile(shape, 0.0, sigma, 1.0), xi)
        np.testing.assert_array_equal(row, expected.real)
        np.testing.assert_array_equal(expected.imag, 0.0)


def test_source_profile_json_round_trip():
    profile = SourceProfile("gaussian", 12.0, 3.0, 42.0)
    assert SourceProfile.from_json(profile.to_json()) == profile


def test_shape_matrix_reference_entry(uniform_profile, reference_array):
    B = shape_matrix(uniform_profile, reference_array)
    assert B[0, 1] == pytest.approx(UNIFORM_B01, rel=1e-12)
    oracle = characteristic_function_quadrature(
        uniform_profile, float(reference_array.kz[0] - reference_array.kz[1])
    )
    assert B[0, 1].real == pytest.approx(oracle.real, abs=1e-9)


def test_shape_matrix_structure(gaussian_profile, reference_array):
    B = shape_matrix(gaussian_profile, reference_array)
    np.testing.assert_allclose(B, B.conj().T, rtol=0, atol=1e-15)
    np.testing.assert_allclose(np.diag(B).real, 1.0, rtol=1e-12)
    assert np.linalg.eigvalsh(B).min() > -1e-10


def test_true_covariance_entries(uniform_profile, reference_array):
    R = true_covariance(uniform_profile, reference_array, 10.0)
    kz = reference_array.kz
    for n in range(reference_array.M):
        for m in range(reference_array.M):
            xi = kz[n] - kz[m]
            expected = 100.0 * characteristic_function(uniform_profile, xi) * np.exp(
                1j * xi * 10.0
            )
            if n == m:
                expected += 10.0
            assert R.matrix[n, m] == pytest.approx(expected, abs=1e-10)


def test_true_covariance_is_psd(gaussian_profile, reference_array):
    R = true_covariance(gaussian_profile, reference_array, 0.0)
    assert np.linalg.eigvalsh(R.matrix).min() > -1e-8


def test_covariance_model_validation():
    bad = np.array([[1.0, 2.0], [0.5, 1.0]], dtype=complex)
    with pytest.raises(ValueError):
        CovarianceModel(matrix=bad)
    indefinite = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    with pytest.raises(ValueError, match="positive semidefinite"):
        CovarianceModel(matrix=indefinite)
    # the zero matrix is positive semidefinite
    CovarianceModel(matrix=np.zeros((2, 2)))


def test_sigma_derivative_matches_finite_difference():
    for shape, sigma in (("gaussian", 4.0), ("uniform", 4.0), ("uniform", 0.05)):
        xi = np.array([0.05, 0.2, 0.38])
        step = 1e-5 * sigma
        plus = SourceProfile(shape, 0.0, sigma + step, 1.0)
        minus = SourceProfile(shape, 0.0, sigma - step, 1.0)
        fd = (characteristic_function(plus, xi) - characteristic_function(minus, xi)) / (2 * step)
        analytic = _char_fn_sigma_derivative(SourceProfile(shape, 0.0, sigma, 1.0), xi)
        # central differences carry roundoff of order eps / step
        np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-9)


def test_sigma_derivative_series_is_continuous():
    # the uniform derivative switches to a series below u = around 1e-4; the
    # leading behavior is -sigma * xi^2, so the deflated ratio must be flat
    # across the switch
    profile = SourceProfile("uniform", 0.0, 1.0, 1.0)
    u_switch = 1e-4
    ratios = []
    for factor in (0.97, 0.999, 1.001, 1.03):
        xi = factor * u_switch / math.sqrt(3.0)
        value = float(_char_fn_sigma_derivative(profile, xi))
        ratios.append(value / xi**2)
    for ratio in ratios[1:]:
        assert ratio == pytest.approx(ratios[0], rel=1e-6)
    assert ratios[0] == pytest.approx(-profile.sigma_z, rel=1e-6)


@settings(max_examples=60)
@given(
    shape=st.sampled_from(["gaussian", "uniform"]),
    sigma=st.floats(min_value=1e-3, max_value=50.0),
    xi=st.floats(min_value=-5.0, max_value=5.0),
)
def test_characteristic_function_bounded(shape, sigma, xi):
    profile = SourceProfile(shape, 0.0, sigma, 1.0)
    value = characteristic_function(profile, xi)
    assert abs(value) <= 1.0 + 1e-12
    assert characteristic_function(profile, 0.0) == pytest.approx(1.0, rel=0)


@settings(max_examples=30)
@given(
    shape=st.sampled_from(["gaussian", "uniform"]),
    sigma=st.floats(min_value=0.0, max_value=20.0),
    noise=st.floats(min_value=0.0, max_value=100.0),
)
def test_true_covariance_always_psd(shape, sigma, noise):
    if shape == "point":
        sigma = 0.0
    array = make_uniform_array(5, 80.0)
    profile = SourceProfile(shape, 30.0, sigma, 12.0)
    R = true_covariance(profile, array, noise)
    assert np.linalg.eigvalsh(R.matrix).min() >= -1e-9 * np.trace(R.matrix).real
