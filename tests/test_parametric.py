import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from tomoments import (
    ArrayConfig,
    CovarianceModel,
    ParametricEstimatorConfig,
    SigmaGrid,
    estimate_parametric,
    make_uniform_array,
    sample_covariance,
    sample_snapshots,
    true_covariance,
)
from tomoments.parametric import _concentrate_nonneg

from .oracles import random_psd_covariance

TIGHT = ParametricEstimatorConfig(refine_tol=1e-9 * 100.0)

# assumed-gaussian fit applied to the exact uniform-profile reference
# covariance; values frozen from this implementation as a regression anchor
MISSPECIFIED_GAUSSIAN = {
    "inverse_sample": (9.999981, 4.745153, 92.39321, 9.57747),
    "identity": (10.0, 5.74058, 103.6526, 6.3474),
}


def test_exact_recovery_uniform_truth(reference_covariance, reference_array):
    result = estimate_parametric(reference_covariance, TIGHT, reference_array)
    assert result.z0_hat == pytest.approx(10.0, abs=1e-5)
    assert result.sigma_z_hat == pytest.approx(5.0, abs=1e-5)
    assert result.P_hat == pytest.approx(100.0, rel=1e-5)
    assert result.sigma_eps2_hat == pytest.approx(10.0, rel=1e-5)
    assert result.cost == pytest.approx(0.0, abs=1e-6)
    assert not result.diagnostics.weighting_loaded


def test_exact_recovery_gaussian_truth(gaussian_profile, reference_array):
    R = true_covariance(gaussian_profile, reference_array, 10.0)
    config = dataclasses.replace(TIGHT, assumed_shape="gaussian")
    result = estimate_parametric(R, config, reference_array)
    assert result.z0_hat == pytest.approx(10.0, abs=1e-5)
    assert result.sigma_z_hat == pytest.approx(5.0, abs=1e-5)
    assert result.P_hat == pytest.approx(100.0, rel=1e-5)
    assert result.sigma_eps2_hat == pytest.approx(10.0, rel=1e-5)


def test_point_source_snaps_to_zero_spread(point_profile, reference_array):
    R = true_covariance(point_profile, reference_array, 10.0)
    for shape in ("uniform", "gaussian"):
        config = dataclasses.replace(TIGHT, assumed_shape=shape)
        result = estimate_parametric(R, config, reference_array)
        assert result.sigma_z_hat == 0.0
        assert result.z0_hat == pytest.approx(10.0, abs=1e-6)
        assert result.P_hat == pytest.approx(100.0, rel=1e-8)
        assert result.sigma_eps2_hat == pytest.approx(10.0, rel=1e-8)


def test_diffuse_truth_does_not_snap(reference_covariance, reference_array):
    result = estimate_parametric(reference_covariance, TIGHT, reference_array)
    assert result.sigma_z_hat > 4.0


@pytest.mark.parametrize("weighting_name", ["inverse_sample", "identity"])
def test_misspecified_shape_frozen_reference(
    weighting_name, reference_covariance, reference_array
):
    config = ParametricEstimatorConfig(
        assumed_shape="gaussian", weighting=weighting_name, refine_tol=1e-9 * 100.0
    )
    result = estimate_parametric(reference_covariance, config, reference_array)
    z0, sigma_z, P, s2 = MISSPECIFIED_GAUSSIAN[weighting_name]
    assert result.z0_hat == pytest.approx(z0, abs=1e-3)
    assert result.sigma_z_hat == pytest.approx(sigma_z, rel=1e-3)
    assert result.P_hat == pytest.approx(P, rel=1e-3)
    assert result.sigma_eps2_hat == pytest.approx(s2, rel=1e-3)
    assert result.cost > 0.0


def test_half_ambiguity_twin_is_rejected(reference_covariance, reference_array):
    # without the sign constraints the uniform family fits the reference
    # covariance exactly at z0 + z_amb/2 with negative power
    result = estimate_parametric(reference_covariance, TIGHT, reference_array)
    assert abs(result.z0_hat - 60.0) > 10.0
    assert result.P_hat > 0.0
    assert result.sigma_eps2_hat > 0.0


def test_concentrate_nonneg_matches_nnls(rng):
    for _ in range(200):
        A = rng.standard_normal((2, 2)) * rng.choice([1.0, 10.0, 1e3])
        Y = A.T @ A + 1e-6 * np.eye(2)
        y = rng.standard_normal(2) * rng.choice([1.0, 50.0])
        alpha, q, degenerate = _concentrate_nonneg(y, Y)
        assert alpha.shape == (2,) and np.ndim(q) == np.ndim(degenerate) == 0
        assert np.all(alpha >= 0.0)
        # max 2 y'a - a'Ya over a >= 0 is an NNLS problem after factoring Y
        L = np.linalg.cholesky(Y)
        b = np.linalg.solve(L, y)
        a_ref, rnorm = nnls(L.T, b)
        q_ref = float(b @ b - rnorm**2)
        assert q == pytest.approx(q_ref, rel=1e-8, abs=1e-10)
        if not degenerate:
            np.testing.assert_allclose(alpha, a_ref, rtol=1e-6, atol=1e-8)


def test_concentrate_nonneg_degenerate_system():
    # rank-1 Y: closed form must still return a feasible point
    alpha, q, degenerate = _concentrate_nonneg(np.array([1.0, 1.0]), np.ones((2, 2)))
    assert degenerate
    assert np.all(alpha >= 0.0)
    assert q == pytest.approx(1.0)


def test_concentrate_nonneg_batch_matches_elementwise(rng):
    # interior, both edges, a rank-1 system, a zero diagonal and a negative y
    y = np.array([[1.0, 1.0], [1.0, -5.0], [-5.0, 1.0], [1.0, 1.0], [2.0, 0.5], [-1.0, -1.0]])
    Y = np.array(
        [
            [[2.0, 0.5], [0.5, 1.0]],
            [[2.0, 0.5], [0.5, 1.0]],
            [[2.0, 0.5], [0.5, 1.0]],
            [[1.0, 1.0], [1.0, 1.0]],
            [[0.0, 0.0], [0.0, 3.0]],
            [[1.0, 0.2], [0.2, 1.0]],
        ]
    )
    extra = rng.standard_normal((12, 2, 2))
    y = np.concatenate([y, 10.0 * rng.standard_normal((12, 2))])
    Y = np.concatenate([Y, extra @ np.swapaxes(extra, -1, -2)])
    batch_y, batch_Y = y.reshape(3, 6, 2), Y.reshape(3, 6, 2, 2)
    alpha, q, degenerate = _concentrate_nonneg(batch_y, batch_Y)
    assert alpha.shape == (3, 6, 2) and q.shape == degenerate.shape == (3, 6)
    seen = {"interior": 0, "edge": 0, "degenerate": 0}
    for index in np.ndindex(3, 6):
        a_i, q_i, d_i = _concentrate_nonneg(batch_y[index], batch_Y[index])
        np.testing.assert_array_equal(alpha[index], a_i)
        assert q[index] == q_i and degenerate[index] == d_i
        kind = "degenerate" if d_i else ("interior" if np.all(a_i > 0.0) else "edge")
        seen[kind] += 1
    assert min(seen.values()) > 0


def test_scale_equivariance(reference_covariance, reference_array):
    base = estimate_parametric(reference_covariance, TIGHT, reference_array)
    scaled_R = CovarianceModel(matrix=2.5 * reference_covariance.matrix, kind="true")
    scaled = estimate_parametric(scaled_R, TIGHT, reference_array)
    assert scaled.z0_hat == pytest.approx(base.z0_hat, abs=1e-6)
    assert scaled.sigma_z_hat == pytest.approx(base.sigma_z_hat, rel=1e-6)
    assert scaled.P_hat == pytest.approx(2.5 * base.P_hat, rel=1e-6)
    assert scaled.sigma_eps2_hat == pytest.approx(2.5 * base.sigma_eps2_hat, rel=1e-6)


def test_phase_shift_equivariance(uniform_profile, reference_array):
    base = estimate_parametric(
        true_covariance(uniform_profile, reference_array, 10.0), TIGHT, reference_array
    )
    shifted_profile = dataclasses.replace(uniform_profile, z0=10.0 + 23.0)
    shifted = estimate_parametric(
        true_covariance(shifted_profile, reference_array, 10.0), TIGHT, reference_array
    )
    assert shifted.z0_hat == pytest.approx(base.z0_hat + 23.0, abs=1e-5)
    assert shifted.sigma_z_hat == pytest.approx(base.sigma_z_hat, rel=1e-5)
    assert shifted.P_hat == pytest.approx(base.P_hat, rel=1e-5)


def test_sampled_covariance_smoke(reference_covariance, reference_array):
    R_bar = sample_covariance(sample_snapshots(reference_covariance, 2000, seed=7))
    result = estimate_parametric(R_bar, ParametricEstimatorConfig(), reference_array)
    assert abs(result.z0_hat - 10.0) < 0.5
    assert abs(result.sigma_z_hat - 5.0) / 5.0 < 0.15
    assert abs(result.P_hat - 100.0) / 100.0 < 0.10


def test_sigma_grid_validation():
    with pytest.raises(ValueError):
        SigmaGrid(min=-1.0)
    with pytest.raises(ValueError):
        SigmaGrid(min=5.0, max=4.0)
    with pytest.raises(ValueError):
        SigmaGrid(points=1)


def test_config_validation():
    with pytest.raises(ValueError):
        ParametricEstimatorConfig(assumed_shape="triangular")
    with pytest.raises(ValueError):
        ParametricEstimatorConfig(weighting="other")
    with pytest.raises(ValueError):
        ParametricEstimatorConfig(z0_grid=1)
    with pytest.raises(ValueError):
        ParametricEstimatorConfig(refine_tol=0.0)
    # booleans are not lengths, although float(True) == 1.0
    for overrides in ({"refine_tol": True}, {"z0_max": True}):
        with pytest.raises(ValueError):
            ParametricEstimatorConfig(**overrides)
    for bounds in ({"max": True}, {"min": True, "max": 5.0}):
        with pytest.raises(ValueError):
            SigmaGrid(**bounds)
    # a fractional grid size from JSON is rejected, not truncated
    with pytest.raises(ValueError):
        ParametricEstimatorConfig.from_json({"sigma_grid": {"points": 2.7}})


def test_config_json_round_trip():
    config = ParametricEstimatorConfig(
        assumed_shape="gaussian",
        weighting="identity",
        z0_grid=96,
        sigma_grid=SigmaGrid(min=1.0, max=20.0, points=32),
        refine_tol=1e-5,
    )
    assert ParametricEstimatorConfig.from_json(config.to_json()) == config
    assert config.to_json()["method"] == "parametric"
    assert ParametricEstimatorConfig.from_json({"assumed_shape": "uniform"}) == (
        ParametricEstimatorConfig()
    )


def test_dimension_mismatch_raises(reference_covariance):
    small_array = make_uniform_array(5, 100.0)
    with pytest.raises(ValueError):
        estimate_parametric(reference_covariance, ParametricEstimatorConfig(), small_array)


def test_ragged_array_needs_explicit_domain(rng):
    array = ArrayConfig(kz=np.array([0.0, 0.063, 0.21]))
    R = CovarianceModel(matrix=random_psd_covariance(rng, 3, scale=5.0), kind="sample")
    with pytest.raises(ValueError):
        estimate_parametric(R, ParametricEstimatorConfig(), array)
    result = estimate_parametric(
        R, ParametricEstimatorConfig(z0_max=80.0), array
    )
    assert 0.0 <= result.z0_hat < 80.0


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    shape=st.sampled_from(["uniform", "gaussian"]),
)
def test_estimates_respect_sign_constraints(seed, shape):
    array = make_uniform_array(5, 60.0)
    rng = np.random.default_rng(seed)
    R_bar = CovarianceModel(matrix=random_psd_covariance(rng, 5, scale=30.0), kind="sample")
    config = ParametricEstimatorConfig(assumed_shape=shape)
    result = estimate_parametric(R_bar, config, array)
    assert result.P_hat >= 0.0
    assert result.sigma_eps2_hat >= 0.0
    assert result.sigma_z_hat >= 0.0
    assert 0.0 <= result.z0_hat < 60.0
    assert result.cost >= 0.0
