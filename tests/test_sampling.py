import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomoments import (
    CovarianceModel,
    SourceProfile,
    covariance_factor,
    derive_seed,
    make_uniform_array,
    sample_covariance,
    sample_snapshots,
    true_covariance,
)


def test_derive_seed_is_deterministic_and_distinct():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    seen = {derive_seed(7, stream, trial) for stream in range(4) for trial in range(50)}
    assert len(seen) == 200
    for seed in seen:
        assert 0 <= seed < 2**64


def test_derive_seed_depends_on_position():
    assert derive_seed(1, 23) != derive_seed(12, 3)
    assert derive_seed(5) != derive_seed(5, 0)


def test_covariance_factor_reconstructs(reference_covariance):
    L = covariance_factor(reference_covariance.matrix)
    np.testing.assert_allclose(
        L @ L.conj().T, reference_covariance.matrix, rtol=0, atol=1e-10
    )


def test_covariance_factor_rank_deficient(point_profile, reference_array):
    # point source with no noise: rank-1 covariance, cholesky must fall back
    R = true_covariance(point_profile, reference_array, 0.0)
    L = covariance_factor(R.matrix)
    np.testing.assert_allclose(L @ L.conj().T, R.matrix, rtol=0, atol=1e-8)


def test_covariance_factor_warns_on_indefinite():
    M = np.diag([1.0, 1.0, -1e-3]).astype(complex)
    with pytest.warns(RuntimeWarning):
        covariance_factor(M)


def test_sample_snapshots_deterministic(reference_covariance):
    a = sample_snapshots(reference_covariance, 64, seed=123)
    b = sample_snapshots(reference_covariance, 64, seed=123)
    c = sample_snapshots(reference_covariance, 64, seed=124)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert type(a) is np.ndarray and a.dtype == complex and a.shape == (64, 7)


def test_sample_covariance_shape_and_kind(reference_covariance):
    stack = sample_snapshots(reference_covariance, 50, seed=9)
    R_bar = sample_covariance(stack)
    assert isinstance(R_bar, CovarianceModel)
    assert R_bar.kind == "sample"
    np.testing.assert_allclose(R_bar.matrix, R_bar.matrix.conj().T, rtol=0, atol=1e-12)
    assert np.linalg.eigvalsh(R_bar.matrix).min() >= -1e-10


def test_sample_covariance_unbiased(reference_covariance):
    # Monte Carlo mean over 200 seeds at N=100 within 2% relative Frobenius
    total = np.zeros((7, 7), dtype=complex)
    for seed in range(200):
        stack = sample_snapshots(reference_covariance, 100, seed=seed)
        total += sample_covariance(stack).matrix
    mean = total / 200
    R = reference_covariance.matrix
    assert np.linalg.norm(mean - R) / np.linalg.norm(R) < 0.02


def test_identity_covariance_law_of_large_numbers():
    R = CovarianceModel(matrix=np.eye(3, dtype=complex), kind="true")
    stack = sample_snapshots(R, 1_000_000, seed=2024)
    R_bar = sample_covariance(stack).matrix
    assert np.abs(R_bar - np.eye(3)).max() < 5e-3


def test_snapshot_unit_variance_convention(reference_covariance):
    # w = (x + jy)/sqrt(2) gives E|w|^2 = 1 per channel: check the white stage
    R = CovarianceModel(matrix=np.eye(2, dtype=complex), kind="true")
    stack = sample_snapshots(R, 200_000, seed=7)
    power = np.mean(np.abs(stack) ** 2, axis=0)
    np.testing.assert_allclose(power, 1.0, atol=8e-3)


@settings(max_examples=25, deadline=None)
@given(
    N=st.integers(min_value=8, max_value=200),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    sigma=st.floats(min_value=0.0, max_value=20.0),
)
def test_sample_covariance_psd(N, seed, sigma):
    array = make_uniform_array(4, 60.0)
    shape = "point" if sigma == 0.0 else "gaussian"
    profile = SourceProfile(shape, 5.0, sigma, 3.0)
    R = true_covariance(profile, array, 1.0)
    R_bar = sample_covariance(sample_snapshots(R, N, seed))
    eigs = np.linalg.eigvalsh(R_bar.matrix)
    assert eigs.min() >= -1e-10 * max(eigs.max(), 1.0)
