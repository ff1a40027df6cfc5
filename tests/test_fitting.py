import numpy as np
import pytest

from tomoments import (
    ArrayConfig,
    DegenerateCovarianceError,
    CovarianceModel,
    make_uniform_array,
    sample_covariance,
    sample_snapshots,
    steering_vector,
)
from tomoments.fitting import (
    _weighting_flagged,
    cost_constant,
    fit_terms,
    fit_terms_grid,
    golden_section_max,
    solve_quadratic,
    weighting,
)

from .oracles import fit_terms_trace_oracle, random_psd_covariance


def _random_hermitian_stack(rng, K, M):
    A = rng.standard_normal((K, M, M)) + 1j * rng.standard_normal((K, M, M))
    return 0.5 * (A + np.conj(np.swapaxes(A, -1, -2)))


def test_weighting_identity(reference_covariance):
    W = weighting(reference_covariance, "identity")
    np.testing.assert_array_equal(W, np.eye(7))


def test_weighting_inverse_sample(reference_covariance):
    stack = sample_snapshots(reference_covariance, 1000, seed=42)
    R_bar = sample_covariance(stack)
    W = weighting(R_bar, "inverse_sample")
    np.testing.assert_allclose(W @ R_bar.matrix, np.eye(7), rtol=0, atol=1e-10)


def test_weighting_rank_deficient_gets_loaded(reference_covariance):
    stack = sample_snapshots(reference_covariance, 3, seed=0)  # N < M: singular
    R_bar = sample_covariance(stack)
    W, loaded = _weighting_flagged(R_bar, "inverse_sample")
    assert loaded
    assert np.all(np.isfinite(W))


def test_weighting_degenerate_raises():
    zero = CovarianceModel(matrix=np.zeros((3, 3), dtype=complex), kind="reconstructed")
    with pytest.raises(DegenerateCovarianceError):
        weighting(zero, "inverse_sample")


def test_weighting_unknown_choice(reference_covariance):
    with pytest.raises(ValueError):
        weighting(reference_covariance, "optimal")


def test_fit_terms_matches_trace_oracle(rng):
    M, K = 5, 4
    array = make_uniform_array(M, 90.0)
    R = random_psd_covariance(rng, M, scale=3.0)
    W = random_psd_covariance(rng, M)
    stack = _random_hermitian_stack(rng, K, M)
    a = steering_vector(array, 17.3)
    WRW = W @ R @ W
    y, Y = fit_terms(stack, a, W, WRW)
    expected_y, expected_Y = fit_terms_trace_oracle(stack, a, W, WRW)
    assert y == pytest.approx(expected_y.real, rel=1e-10, abs=1e-12)
    assert Y == pytest.approx(expected_Y.real, rel=1e-10, abs=1e-12)


def test_fit_terms_real_to_rounding(rng):
    M, K = 6, 5
    array = make_uniform_array(M, 120.0)
    R = random_psd_covariance(rng, M, scale=10.0)
    W = random_psd_covariance(rng, M)
    stack = _random_hermitian_stack(rng, K, M)
    a = steering_vector(array, 33.0)
    WRW = W @ R @ W
    # the terms are exactly real in theory: the complex oracle shows it to
    # rounding, and fit_terms returns the oracle's real part
    y_c, Y_c = fit_terms_trace_oracle(stack, a, W, WRW)
    assert np.abs(y_c.imag).max() < 1e-9 * max(np.abs(y_c.real).max(), 1e-30)
    assert np.abs(Y_c.imag).max() < 1e-9 * max(np.abs(Y_c.real).max(), 1e-30)
    np.testing.assert_allclose(Y_c.real, Y_c.real.T, rtol=0, atol=1e-9 * np.abs(Y_c.real).max())
    y, Y = fit_terms(stack, a, W, WRW)
    assert y.dtype == Y.dtype == np.float64
    assert y == pytest.approx(y_c.real, rel=1e-10, abs=1e-12)
    assert Y == pytest.approx(Y_c.real, rel=1e-10, abs=1e-12)


def test_fit_terms_grid_matches_pointwise(rng):
    M, K = 4, 3
    array = make_uniform_array(M, 70.0)
    R = random_psd_covariance(rng, M, scale=2.0)
    W = random_psd_covariance(rng, M)
    stack = _random_hermitian_stack(rng, K, M)
    z_grid = np.array([0.0, 13.7, 35.0, 69.9])
    WRW = W @ R @ W
    A = np.stack([steering_vector(array, z) for z in z_grid])
    y_all, Y_all = fit_terms_grid(stack, A, W, WRW)
    for idx, z in enumerate(z_grid):
        y, Y = fit_terms(stack, steering_vector(array, z), W, WRW)
        np.testing.assert_allclose(y_all[idx], y, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(Y_all[idx], Y, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "array, z0_max",
    [
        (make_uniform_array(5, 80.0), None),
        (ArrayConfig(kz=np.array([0.0, 0.031, 0.077, 0.102, 0.19])), 140.0),
    ],
    ids=["uniform", "irregular"],
)
def test_fit_terms_grid_broadcasts_heights_against_stacks(rng, array, z0_max):
    # (Z, 1, M) steering vectors against an (S, K, M, M) stack of bases give
    # one system per (height, basis) pair, each equal to the trace oracle
    M, K, S = array.M, 2, 3
    R = random_psd_covariance(rng, M, scale=3.0)
    W = random_psd_covariance(rng, M)
    WRW = W @ R @ W
    stacks = np.stack([_random_hermitian_stack(rng, K, M) for _ in range(S)])
    z_grid = np.linspace(0.0, z0_max or array.ambiguity, 4, endpoint=False) + 1.3
    A = np.stack([steering_vector(array, z) for z in z_grid])
    y, Y = fit_terms_grid(stacks, A[:, None, :], W, WRW)
    assert y.shape == (z_grid.size, S, K) and Y.shape == (z_grid.size, S, K, K)
    for z, s in np.ndindex(z_grid.size, S):
        expected_y, expected_Y = fit_terms_trace_oracle(stacks[s], A[z], W, WRW)
        assert y[z, s] == pytest.approx(expected_y.real, rel=1e-10, abs=1e-12)
        assert Y[z, s] == pytest.approx(expected_Y.real, rel=1e-10, abs=1e-12)


def test_solve_quadratic_recovers_exact_solution(rng):
    K = 4
    A = rng.standard_normal((K, K))
    Y = A @ A.T + K * np.eye(K)
    alpha_true = rng.standard_normal(K)
    y = Y @ alpha_true
    alpha, objective, used_pinv = solve_quadratic(y, Y)
    np.testing.assert_allclose(alpha, alpha_true, rtol=1e-10)
    assert objective == pytest.approx(float(y @ alpha_true), rel=1e-10)
    assert not used_pinv


def test_solve_quadratic_batch_matches_single(rng):
    K, Z = 3, 6
    systems = []
    for _ in range(Z):
        A = rng.standard_normal((K, K))
        systems.append(A @ A.T + K * np.eye(K))
    Y = np.stack(systems)
    y = rng.standard_normal((Z, K))
    alpha, objective, _ = solve_quadratic(y, Y)
    for z in range(Z):
        a_z, q_z, _ = solve_quadratic(y[z], Y[z])
        np.testing.assert_allclose(alpha[z], a_z, rtol=1e-12)
        assert objective[z] == pytest.approx(q_z, rel=1e-12, abs=1e-12)


def test_solve_quadratic_handles_badly_scaled_columns(rng):
    # column scales differing by 1e7 square to a raw condition number ~1e14;
    # equilibration must keep the solve exact rather than truncating
    K = 3
    A = rng.standard_normal((K, K))
    base = A @ A.T + K * np.eye(K)
    scale = np.diag([1.0, 1e-4, 1e-7])
    Y = scale @ base @ scale
    alpha_true = np.array([1.0, 2.0e4, -3.0e7])
    y = Y @ alpha_true
    alpha, _, used_pinv = solve_quadratic(y, Y)
    assert not used_pinv
    np.testing.assert_allclose(alpha, alpha_true, rtol=1e-6)


def test_solve_quadratic_singular_falls_back_to_pinv():
    Y = np.ones((2, 2))
    y = np.array([1.0, 1.0])
    alpha, objective, used_pinv = solve_quadratic(y, Y)
    assert used_pinv
    assert np.all(np.isfinite(alpha))
    assert objective >= 0.0


def test_cost_constant_is_squared_norm(rng):
    M = 5
    R = random_psd_covariance(rng, M, scale=4.0)
    W = random_psd_covariance(rng, M)
    vals, vecs = np.linalg.eigh(W)
    W_half = (vecs * np.sqrt(vals)) @ vecs.conj().T
    expected = np.linalg.norm(W_half @ R @ W_half, "fro") ** 2
    assert cost_constant(R, W) == pytest.approx(expected, rel=1e-10)


def test_golden_section_max_quadratic():
    x_star = golden_section_max(lambda x: -((x - 2.3) ** 2), 0.0, 5.0, tol=1e-9)
    assert x_star == pytest.approx(2.3, abs=1e-8)
