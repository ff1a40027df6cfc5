import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomoments import (
    ArrayConfig,
    CovarianceModel,
    SourceProfile,
    covariance_factor,
    derive_seed,
    make_uniform_array,
    sample_covariance,
    sample_snapshots,
    true_covariance,
)

from .conftest import IRREGULAR_STACKS
from .oracles import sample_covariance_formula, sample_snapshots_formula


def test_derive_seed_is_deterministic_and_distinct():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    seen = {derive_seed(7, stream, trial) for stream in range(4) for trial in range(50)}
    assert len(seen) == 200
    for seed in seen:
        assert 0 <= seed < 2**64


def test_derive_seed_depends_on_position():
    assert derive_seed(1, 23) != derive_seed(12, 3)
    assert derive_seed(5) != derive_seed(5, 0)


@pytest.mark.parametrize("N", [1, 7, 100, 10000])
def test_sampling_has_the_bits_of_its_formulas(reference_covariance, N):
    # the snapshots are written in place and scaled by the reciprocal, the
    # covariance symmetrized in place: the bits of the formulas
    for seed in (0, 1, 17, 2**63 + 5):
        snapshots = sample_snapshots(reference_covariance, N, seed)
        assert snapshots.tobytes() == sample_snapshots_formula(reference_covariance, N, seed).tobytes()
        R = np.asarray(sample_covariance(snapshots).matrix)
        assert R.tobytes() == np.asarray(sample_covariance_formula(snapshots).matrix).tobytes()


def _signed_stack_covariance():
    kz, _ = IRREGULAR_STACKS["M7-signed"]
    return true_covariance(SourceProfile("gaussian", 20.0, 4.0, 100.0), ArrayConfig(kz=np.array(kz)), 10.0)


@pytest.mark.parametrize("stack", ["reference", "M7-signed"])
@pytest.mark.parametrize("N", [1, 6, 7, 1000, 10000])
def test_draw_into_out_has_the_bits_of_a_fresh_draw(reference_covariance, stack, N):
    # at N = 1, M - 1, M and beyond: the stack drawn into a buffer is the
    # buffer, with the bits of a fresh draw, and a buffer reused across seeds
    # (and holding another draw's stack) keeps each seed's bits
    R = reference_covariance if stack == "reference" else _signed_stack_covariance()
    buffer = np.full((N, R.M), np.nan + 1j * np.inf)
    for seed in (0, 17, 2**63 + 5, 0):
        assert sample_snapshots(R, N, seed, out=buffer) is buffer
        assert buffer.tobytes() == sample_snapshots(R, N, seed).tobytes()


def test_draw_refuses_an_unusable_out(reference_covariance):
    # the wrong shape or dtype, a strided or Fortran-ordered view, a read-only
    # array and a non-array are refused
    read_only = np.zeros((10, 7), dtype=complex)
    read_only.flags.writeable = False
    for out in (
        np.zeros((10, 6), dtype=complex),
        np.zeros((7, 10), dtype=complex),
        np.zeros(70, dtype=complex),
        np.zeros((10, 7), dtype=np.complex64),
        np.zeros((10, 14)),
        np.zeros((20, 7), dtype=complex)[::2],
        np.zeros((10, 7), dtype=complex, order="F"),
        read_only,
        read_only.tolist(),
    ):
        with pytest.raises(ValueError, match="out must be"):
            sample_snapshots(reference_covariance, 10, 3, out=out)


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
    R = CovarianceModel(matrix=np.eye(3, dtype=complex))
    stack = sample_snapshots(R, 1_000_000, seed=2024)
    R_bar = sample_covariance(stack).matrix
    assert np.abs(R_bar - np.eye(3)).max() < 5e-3


def test_snapshot_unit_variance_convention(reference_covariance):
    # w = (x + jy)/sqrt(2) gives E|w|^2 = 1 per channel: check the white stage
    R = CovarianceModel(matrix=np.eye(2, dtype=complex))
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
