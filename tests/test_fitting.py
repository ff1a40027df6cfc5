import collections
import math
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import tomoments
from tomoments import (
    ArrayConfig,
    DegenerateCovarianceError,
    CovarianceModel,
    MomentEstimatorConfig,
    ParametricEstimatorConfig,
    SourceProfile,
    baseline_differences,
    estimate,
    estimate_parametric,
    make_uniform_array,
    sample_covariance,
    sample_snapshots,
    shape_characteristic,
    shape_matrix,
    steering_vector,
    true_covariance,
)
from tomoments import fitting
from tomoments.fitting import (
    _TIE_BAND,
    _chebyshev_interpolant,
    _interpolant_nodes,
    _search_plan,
    _weighting_flagged,
    cost_constant,
    fit_terms,
    fit_terms_grid,
    golden_section_max,
    harmonic_terms,
    nelder_mead,
    shape_terms_grid,
    solve_quadratic,
)
from tomoments.moments import _basis_response, _basis_stack, _moment_plan

from .conftest import IRREGULAR_STACKS
from .oracles import (
    fit_terms_trace_oracle,
    nelder_mead_scipy,
    random_psd_covariance,
    solve_quadratic_eigvalsh_oracle,
    weighting,
)


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
    W, loaded, condition = _weighting_flagged(R_bar, "inverse_sample")
    assert loaded
    assert np.all(np.isfinite(W))
    # the condition is the loaded matrix's, below the 1e12 that triggers loading
    assert condition == pytest.approx(np.linalg.cond(W), rel=1e-6) and condition < 1e12


def test_weighting_degenerate_raises():
    zero = CovarianceModel(matrix=np.zeros((3, 3), dtype=complex))
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


def _random_frequency_responses(rng, shape, frequencies):
    """Random basis responses h (..., F) whose matrices h(f_mn) are Hermitian.

    Hermitian means ``h(-f) = conj(h(f))``.  The frequencies are sorted and
    come in pairs ``+-f``, so reversing them maps each f to -f.
    """
    h = rng.standard_normal(shape + frequencies.shape) + 1j * rng.standard_normal(
        shape + frequencies.shape
    )
    np.testing.assert_array_equal(frequencies, -frequencies[::-1])
    return 0.5 * (h + h[..., ::-1].conj())


def _matrices(h, array, frequencies):
    """The basis matrices ``H[m, n] = h(kz_m - kz_n)`` of responses h (..., F)."""
    index = np.searchsorted(frequencies, baseline_differences(array))
    return h[..., index]


def _phase(z, terms):
    """The phase table ``exp(j z f)`` of heights z at ``terms.frequencies``."""
    return np.exp(1j * np.multiply.outer(z, terms.frequencies))


def _phase_weighted(h, z, terms):
    """Responses h (..., K, F) times the phase table of heights z, broadcast
    against their leading dimensions: the input of ``fit_terms_grid``."""
    return h * _phase(z, terms)[..., None, :]


def _harmonic_setup(rng, array):
    M = array.M
    R = random_psd_covariance(rng, M, scale=3.0)
    W = random_psd_covariance(rng, M)
    WRW = W @ R @ W
    return W, WRW, harmonic_terms(array, W, WRW)


IRREGULAR = ArrayConfig(kz=np.array([0.0, 0.031, 0.077, 0.102, 0.19]))
# kz_1 - kz_0 and kz_4 - kz_3 agree to 1e-9 relative
NEAR_COINCIDENT = ArrayConfig(kz=np.array([0.0, 0.031, 0.077, 0.102, 0.102 + 0.031 * (1.0 + 1e-9)]))


def test_harmonic_terms_keep_close_frequencies_apart():
    frequencies = harmonic_terms(NEAR_COINCIDENT, np.eye(5), np.eye(5)).frequencies
    # all 5 * 4 off-diagonal differences stay distinct, plus f = 0
    assert frequencies.size == 21
    close = np.sort(frequencies[(frequencies > 0.03) & (frequencies < 0.032)])
    assert close.size == 2
    assert close[1] / close[0] - 1.0 == pytest.approx(1e-9, rel=1e-3)


def test_fit_terms_grid_matches_pointwise(rng):
    M, K = 4, 3
    array = make_uniform_array(M, 70.0)
    W, WRW, terms = _harmonic_setup(rng, array)
    h = _random_frequency_responses(rng, (K,), terms.frequencies)
    stack = _matrices(h, array, terms.frequencies)
    z_grid = np.array([0.0, 13.7, 35.0, 69.9])
    y_all, Y_all = fit_terms_grid(_phase_weighted(h, z_grid, terms), terms)
    for idx, z in enumerate(z_grid):
        y, Y = fit_terms(stack, steering_vector(array, z), W, WRW)
        np.testing.assert_allclose(y_all[idx], y, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(Y_all[idx], Y, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "array, z0_max",
    [(make_uniform_array(5, 80.0), None), (IRREGULAR, 140.0)],
    ids=["uniform", "irregular"],
)
def test_fit_terms_grid_broadcasts_heights_against_stacks(rng, array, z0_max):
    # (Z, 1) heights against (S, K, F) responses give one system per
    # (height, basis) pair, each equal to the trace oracle
    K, S = 2, 3
    W, WRW, terms = _harmonic_setup(rng, array)
    h = _random_frequency_responses(rng, (S, K), terms.frequencies)
    z_grid = np.linspace(0.0, z0_max or array.ambiguity, 4, endpoint=False) + 1.3
    y, Y = fit_terms_grid(_phase_weighted(h, z_grid[:, None], terms), terms)
    assert y.shape == (z_grid.size, S, K) and Y.shape == (z_grid.size, S, K, K)
    for z, s in np.ndindex(z_grid.size, S):
        a = steering_vector(array, z_grid[z])
        stack = _matrices(h[s], array, terms.frequencies)
        expected_y, expected_Y = fit_terms_trace_oracle(stack, a, W, WRW)
        assert y[z, s] == pytest.approx(expected_y.real, rel=1e-10, abs=1e-12)
        assert Y[z, s] == pytest.approx(expected_Y.real, rel=1e-10, abs=1e-12)


ARRAYS = {
    "uniform": (make_uniform_array(6, 90.0), 90.0),
    "irregular": (IRREGULAR, 140.0),
    "near-coincident": (NEAR_COINCIDENT, 140.0),
}


@pytest.mark.parametrize("name", list(ARRAYS))
def test_fit_terms_grid_moment_basis_matches_trace_oracle(rng, name):
    # odd orders make the responses complex
    array, z0_max = ARRAYS[name]
    config = MomentEstimatorConfig(D=5, symmetric=False)
    W, WRW, terms = _harmonic_setup(rng, array)
    z_grid = np.linspace(0.0, z0_max, 7, endpoint=False) + 0.37
    y, Y = fit_terms_grid(_phase_weighted(_basis_response(config, terms.frequencies), z_grid, terms), terms)
    stack = _basis_stack(config, array)
    for idx, z in enumerate(z_grid):
        expected_y, expected_Y = fit_terms_trace_oracle(stack, steering_vector(array, z), W, WRW)
        assert y[idx] == pytest.approx(expected_y.real, rel=1e-10, abs=1e-12)
        assert Y[idx] == pytest.approx(expected_Y.real, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("name", list(ARRAYS))
@pytest.mark.parametrize("shape", ["uniform", "gaussian"])
def test_fit_terms_grid_shape_identity_basis_matches_trace_oracle(rng, name, shape):
    # the parametric grid's (shape, identity) basis over several sigma values;
    # the identity's cross term is also the shape's data term against W W
    array, z0_max = ARRAYS[name]
    W, WRW, _ = _harmonic_setup(rng, array)
    terms = harmonic_terms(array, W, np.stack([WRW, W @ W]))
    sigmas = np.array([0.0, 2.5, 7.0, 19.0])
    phi = shape_characteristic(shape, sigmas[:, None], terms.frequencies)
    h = np.stack([phi, np.broadcast_to(terms.frequencies == 0.0, phi.shape)], axis=1)
    z_grid = np.linspace(0.0, z0_max, 5, endpoint=False) + 2.9
    y, Y = fit_terms_grid(_phase_weighted(h, z_grid[:, None], terms), terms)
    assert y.shape == (z_grid.size, sigmas.size, 2, 2) and Y.shape == (z_grid.size, sigmas.size, 2, 2)
    for z, s in np.ndindex(z_grid.size, sigmas.size):
        profile = SourceProfile(shape, 0.0, sigmas[s], 1.0)
        stack = np.stack([shape_matrix(profile, array), np.eye(array.M)])
        expected_y, expected_Y = fit_terms_trace_oracle(stack, steering_vector(array, z_grid[z]), W, WRW)
        assert y[z, s, :, 0] == pytest.approx(expected_y.real, rel=1e-10, abs=1e-12)
        assert Y[z, s] == pytest.approx(expected_Y.real, rel=1e-10, abs=1e-12)
        assert y[z, s, 0, 1] == pytest.approx(expected_Y[0, 1].real, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("name", list(ARRAYS))
@pytest.mark.parametrize("shape", ["uniform", "gaussian"])
def test_shape_terms_grid_matches_trace_oracle(rng, name, shape):
    # the Gram form against explicit traces of the (shape, identity) basis:
    # the shape's y and Y, and its data term against W W, the cross term Y12
    array, z0_max = ARRAYS[name]
    W, WRW, _ = _harmonic_setup(rng, array)
    terms = harmonic_terms(array, W, np.stack([WRW, W @ W]))
    sigmas = np.array([0.0, 2.5, 7.0, 19.0])
    phi = shape_characteristic(shape, sigmas[:, None], terms.frequencies)
    z_grid = np.linspace(0.0, z0_max, 37, endpoint=False) + 2.9
    y, Y = shape_terms_grid(phi, _phase(z_grid, terms), terms)
    assert y.shape == (z_grid.size, sigmas.size, 2) and Y.shape == (z_grid.size, sigmas.size)
    for z, s in np.ndindex(z_grid.size, sigmas.size):
        profile = SourceProfile(shape, 0.0, sigmas[s], 1.0)
        stack = np.stack([shape_matrix(profile, array), np.eye(array.M)])
        expected_y, expected_Y = fit_terms_trace_oracle(stack, steering_vector(array, z_grid[z]), W, WRW)
        assert y[z, s, 0] == pytest.approx(expected_y[0].real, rel=1e-10, abs=1e-12)
        assert Y[z, s] == pytest.approx(expected_Y[0, 0].real, rel=1e-10, abs=1e-12)
        assert y[z, s, 1] == pytest.approx(expected_Y[0, 1].real, rel=1e-10, abs=1e-12)


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


def test_solve_quadratic_single_system_is_bit_identical_to_a_batch_row(rng):
    # the single-system path runs the same routines without the batch: every
    # output bit matches, on well-posed systems of every size and on
    # rank-deficient ones that take the pseudo-inverse
    seen_pinv = 0
    for _ in range(400):
        K = int(rng.integers(2, 7))
        A = rng.standard_normal((K, K)) * np.exp(rng.uniform(-6.0, 6.0, K))
        if rng.random() < 0.1:
            A[:, -1] = A[:, 0] * rng.uniform(0.5, 2.0)
        Y = A.T @ A
        y = 3.0 * rng.standard_normal(K)
        alpha, objective, used_pinv = solve_quadratic(y, Y)
        batch_alpha, batch_objective, batch_pinv = solve_quadratic(y[None], Y[None])
        assert alpha.tobytes() == batch_alpha[0].tobytes()
        assert type(objective) is float
        assert np.float64(objective).tobytes() == batch_objective[0].tobytes()
        assert used_pinv == batch_pinv
        seen_pinv += used_pinv
    assert seen_pinv > 0


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


def _system(rng, K, kind):
    """One system ``(y, Y)`` of a kind the batched screen must sort like the eigenvalue screen.

    Every kind but ``"nonpositive"`` is built as ``D C D`` from a unit-diagonal
    ``C`` and random column scales ``D``, so that equilibration recovers ``C``
    to rounding: ``"good"`` is well conditioned, ``"deficient"`` has rank
    ``K - 1``, and ``"ratio:<r>"`` has ``lambda_min / lambda_max`` about ``r``.
    ``"nonpositive"`` has a zero or negative diagonal entry.
    """
    V = rng.standard_normal((K, K - 1))
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    B = V @ V.T  # unit diagonal, rank K - 1
    if kind == "good":
        C = 0.5 * B + 0.5 * np.eye(K)
    elif kind == "deficient":
        C = B
    elif kind.startswith("ratio:"):
        shift = float(kind[len("ratio:") :]) * np.linalg.eigvalsh(B)[-1]
        C = (B + shift * np.eye(K)) / (1.0 + shift)
    else:
        C = 0.5 * B + 0.5 * np.eye(K)
        C[K - 1, K - 1] = rng.choice([0.0, -0.3])
    d = np.exp(rng.uniform(-5.0, 5.0, K))
    return 3.0 * rng.standard_normal(K), d[:, None] * C * d[None, :]


def test_solve_quadratic_certified_screen_matches_eigenvalue_screen(rng):
    # the Cholesky certificate against the eigenvalue screen it replaces on a
    # certified batch: the same alpha and objective bits and the same flag, on
    # all-good batches (certified) and on batches with one system of every
    # other kind, including equilibrated ratios on either side of the 1e-12
    # cutoff, which must fall back to the screen, system by system.  Batches of
    # K = 14 and 16 unknowns, past the certificate's proof, always take it.
    kinds = ["deficient", "ratio:1e-11", "ratio:1e-13", "nonpositive"]
    for K in (*range(2, 8), 14, 16):
        for size in range(1, 13):
            for mixed in (None, *kinds):
                systems = [_system(rng, K, "good") for _ in range(size)]
                if mixed is not None:
                    systems[int(rng.integers(size))] = _system(rng, K, mixed)
                y, Y = (np.stack(column) for column in zip(*systems))
                expected = solve_quadratic_eigvalsh_oracle(y, Y)
                with mock.patch("numpy.linalg.eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
                    alpha, objective, used_pinv = solve_quadratic(y, Y)
                assert alpha.tobytes() == expected[0].tobytes()
                assert objective.tobytes() == expected[1].tobytes()
                assert used_pinv is expected[2]
                assert used_pinv is (mixed not in (None, "ratio:1e-11"))
                assert eigvalsh.call_count == (0 if mixed is None and K <= 13 else size)


def test_certified_moment_grid_computes_no_eigenvalues(reference_covariance, reference_array, monkeypatch):
    # the whole D = 4 grid on the reference covariance is certified by one
    # Cholesky factorization: no eigvalsh call, no pseudo-inverse
    config = MomentEstimatorConfig(D=4)
    W = weighting(reference_covariance, "inverse_sample")
    terms = harmonic_terms(reference_array, W, W @ reference_covariance.matrix @ W)
    y, Y = fit_terms_grid(_moment_plan(config, reference_array).weighted, terms)
    expected = solve_quadratic_eigvalsh_oracle(y, Y)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    alpha, objective, used_pinv = solve_quadratic(y, Y)
    assert calls == []
    assert not used_pinv
    assert alpha.tobytes() == expected[0].tobytes()
    assert objective.tobytes() == expected[1].tobytes()


_NON_FINITE_PROBE = textwrap.dedent(
    """
    import numpy as np
    from tomoments.fitting import solve_quadratic

    def refused(y, Y):
        try:
            solve_quadratic(y, Y)
        except ValueError as error:
            return str(error)
        return "solved"

    batch = np.tile(np.eye(3), (4, 1, 1))
    batch[2, 0, 0] = np.inf
    single = np.eye(3)
    single[2, 0] = single[0, 2] = np.inf
    nan = np.eye(3)
    nan[1, 2] = nan[2, 1] = np.nan
    print(refused(np.ones((4, 3)), batch))
    print(refused(np.ones(3), single))
    print(refused(np.ones(3), nan))
    print(refused(np.array([1.0, np.nan, 1.0]), np.eye(3)))
    print(refused(np.ones((4, 3)), np.tile(nan, (4, 1, 1))))
    """
)


def test_solve_quadratic_refuses_non_finite_systems():
    # a non-finite system used to reach the pseudo-inverse, whose SVD can
    # run forever on an infinite entry; run in a child process so that a
    # hang fails this test instead of stopping the suite
    src = Path(tomoments.__file__).resolve().parents[1]
    code = f"import sys; sys.path.insert(0, {str(src)!r})\n" + _NON_FINITE_PROBE
    probe = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, check=True)
    assert probe.stdout.splitlines() == [
        "system 2 of the batch has a non-finite entry",
        "the system has a non-finite entry",
        "the system has a non-finite entry",
        "the system has a non-finite entry",
        "system 0 of the batch has a non-finite entry",
    ]


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


def test_golden_section_max_compares_near_ties_exactly():
    # a fast form off by less than half the band returns the point of the
    # search on the exact function, although on its own it goes elsewhere:
    # this maximum is so flat that rounding-size differences decide the end
    def exact(x):
        return 1.0 - 1e-12 * (x - 2.3) ** 2

    def fast(x):
        return exact(x) * (1.0 + 0.45 * _TIE_BAND * math.sin(1e7 * x))

    x_star = golden_section_max(exact, 0.0, 5.0, 1e-9)
    assert golden_section_max(fast, 0.0, 5.0, 1e-9) != x_star
    assert golden_section_max(fast, 0.0, 5.0, 1e-9, exact=exact) == x_star


def test_golden_section_max_calls_exact_only_on_near_ties():
    # values far apart are compared as they are; a tie of the fast form
    # evaluates each of its two points exactly once
    def f(x):
        return -((x - 2.3) ** 2)

    def refuse(x):
        raise AssertionError(f"exact value asked at {x}")

    assert golden_section_max(f, 0.0, 5.0, 1e-2, exact=refuse) == golden_section_max(f, 0.0, 5.0, 1e-2)
    asked = []

    def exact(x):
        asked.append(x)
        return -abs(x - 2.3)

    golden_section_max(lambda x: 0.0, 0.0, 5.0, 1e-3, exact=exact)
    assert len(asked) == len(set(asked)) > 2


def _fit_bits(fit) -> tuple:
    """The bytes of every number of a moment estimate."""
    names = ("z0_hat", "P_hat", "sigma_eps2_hat", "nu", "sigma_z_hat", "cost")
    return tuple(np.asarray(getattr(fit, name)).tobytes() for name in names)


def _bracket_setup(reference_covariance, reference_array, config, N, seed):
    """A sampled reference covariance prepared for inverse-sample weighting, the
    bracket of its best grid node under ``config`` and the node values from
    the batched grid solve."""
    plan = _moment_plan(config, reference_array)
    R_bar = sample_covariance(sample_snapshots(reference_covariance, N, seed=seed))
    covariance = fitting.PreparedCovariance(R_bar, reference_array, "inverse_sample")
    terms = covariance.terms._replace(c=covariance.terms.c[:, 0])
    objective = solve_quadratic(*fit_terms_grid(plan.weighted, terms))[1]
    lo, hi = plan.search.bracket(int(np.argmax(objective)))
    nodes = _interpolant_nodes(lo, hi)
    _, values, pinv = solve_quadratic(*fit_terms_grid(_phase_weighted(plan.response, nodes, terms), terms))
    assert not pinv
    return plan, covariance, (lo, hi), nodes, values


@pytest.mark.parametrize("D, symmetric", [(2, True), (4, True), (4, False), (8, False)])
def test_interpolant_matches_the_grid_solve_and_the_product_form(reference_covariance, reference_array, D, symmetric):
    # at its nodes the interpolant gives the certified batch solve's values to
    # rounding; between them it is within a tenth of the tie band of the
    # product form at 16 random heights of each bracket
    rng = np.random.default_rng(D)
    config = MomentEstimatorConfig(D=D, symmetric=symmetric)
    for N, seed in ((100, 1), (1000, 2), (10000, 3)):
        plan, covariance, bracket, nodes, values = _bracket_setup(
            reference_covariance, reference_array, config, N, seed
        )
        fast = _chebyshev_interpolant(values, *bracket)
        assert fast is not None
        np.testing.assert_allclose([fast(float(z)) for z in nodes], values, rtol=1e-11)
        for z in rng.uniform(*bracket, 16):
            a = steering_vector(reference_array, z)
            product = solve_quadratic(*fit_terms(plan.stack, a, covariance.W, covariance.WRW))[1]
            assert abs(fast(float(z)) - product) <= _TIE_BAND / 10 * abs(product)


def test_interpolant_tail_test():
    # a polynomial of degree below the last two coefficients is kept, and its
    # interpolant is the polynomial; a kink, a peak narrower than the nodes
    # resolve, or a tail in either of the last two coefficients is refused
    nodes = _interpolant_nodes(2.0, 6.0)
    x = (nodes - 4.0) / 2.0
    polynomial = np.polynomial.Polynomial([3.0, -1.0, 0.5, 0.0, 0.25] + [0.0] * 13 + [1e-3])
    fast = _chebyshev_interpolant(polynomial(x), 2.0, 6.0)
    assert fast is not None
    for z in np.linspace(2.0, 6.0, 9):
        assert fast(z) == pytest.approx(polynomial((z - 4.0) / 2.0), rel=1e-13, abs=1e-13)
    assert _chebyshev_interpolant(1.0 - np.abs(x), 2.0, 6.0) is None
    # an odd tail: the last coefficient vanishes, the one before it does not
    odd_tail = np.polynomial.chebyshev.chebval(x, [1.0] + [0.0] * 18 + [1e-9])
    assert _chebyshev_interpolant(odd_tail, 2.0, 6.0) is None
    assert _chebyshev_interpolant(1.0 / (1.0 + 100.0 * x**2), 2.0, 6.0) is None
    assert _chebyshev_interpolant(np.zeros_like(x), 2.0, 6.0) is not None


def test_refused_certificate_or_pinv_node_decides_the_bracket(reference_covariance, reference_array, monkeypatch):
    # the certificate refuses the node batch, which is solved system by
    # system: where no system needs the pseudo-inverse the interpolant still
    # serves the bracket with the same values; where one does, the bracket
    # refines on the product form alone.  The estimate keeps its bits
    config = MomentEstimatorConfig()
    R_bar = sample_covariance(sample_snapshots(reference_covariance, 1000, seed=7))
    plain = estimate(R_bar, config, reference_array)
    cholesky, single = np.linalg.cholesky, fitting._solve_single
    node_systems, fast_forms, singles = (fitting._INTERPOLANT_NODES,), [], []

    def certificate(a):
        if a.shape[:1] == node_systems:
            raise np.linalg.LinAlgError("refused")
        return cholesky(a)

    def golden(f, lo, hi, tol, exact=None):
        fast_forms.append(exact is not None)
        return golden_section_max(f, lo, hi, tol, exact=exact)

    monkeypatch.setattr(np.linalg, "cholesky", certificate)
    monkeypatch.setattr("tomoments.moments.golden_section_max", golden)
    for pinv in (False, True):
        def solve_single(y, Y):
            alpha, q, used_pinv = single(y, Y)
            singles.append(None)
            return alpha, q, used_pinv or pinv

        monkeypatch.setattr(fitting, "_solve_single", solve_single)
        singles.clear()
        fit = estimate(R_bar, config, reference_array)
        assert len(singles) >= fitting._INTERPOLANT_NODES
        assert fast_forms.pop() is not pinv
        assert _fit_bits(fit) == _fit_bits(plain)
        assert fit.diagnostics.pinv_used is pinv


def test_interpolant_nodes_refuse_non_finite_terms(reference_covariance, reference_array, monkeypatch):
    # a non-finite entry in the node batch's terms ends in the batched
    # solve's ValueError, in the fit and from non-finite coefficients
    config = MomentEstimatorConfig()
    plan = _moment_plan(config, reference_array)
    terms = fitting.PreparedCovariance(reference_covariance, reference_array, "inverse_sample").terms
    broken = terms._replace(c=np.where(terms.frequencies == 0.0, np.nan, terms.c[:, 0]))
    with pytest.raises(ValueError, match="non-finite entry"):
        solve_quadratic(*fit_terms_grid(_phase_weighted(plan.response, _interpolant_nodes(5.0, 7.0), broken), broken))
    grid_terms = fitting.fit_terms_grid

    def breaking(hz, terms):
        y, Y = grid_terms(hz, terms)
        if hz.shape[0] == fitting._INTERPOLANT_NODES:
            Y[3, 1, 1] = math.nan
        return y, Y

    monkeypatch.setattr("tomoments.moments.fit_terms_grid", breaking)
    with pytest.raises(ValueError, match="system 3 of the batch has a non-finite entry"):
        estimate(reference_covariance, config, reference_array)


def _same_search_as_scipy(f, simplex, exact=None, **options):
    """Run ``nelder_mead`` and scipy's Nelder-Mead; require the same bits of the
    best vertex, the same evaluation and iteration counts and the same verdict.
    With ``exact``, ``f`` is its fast form: scipy runs on ``exact`` alone."""
    ours = nelder_mead(f, simplex, exact=exact, **options)
    theirs = nelder_mead_scipy(f if exact is None else exact, simplex, **options)
    assert np.array(ours.x, dtype=float).tobytes() == theirs.x.tobytes()
    assert (ours.nfev, ours.nit, ours.success) == (theirs.nfev, theirs.nit, theirs.success)
    return ours


def _rosenbrock(x):
    return 100.0 * (x[1] - x[0] * x[0]) * (x[1] - x[0] * x[0]) + (1.0 - x[0]) * (1.0 - x[0])


def _rosenbrock_nan_right(x):
    return math.nan if x[0] > 0.3 else _rosenbrock(x)


def _terraces(x):
    # piecewise constant: most comparisons are ties
    return float(math.floor(4.0 * (x[0] * x[0] + x[1] * x[1])))


def _bowl_3d(x):
    return (x[0] - 1.0) ** 2 + 2.0 * (x[1] + 0.5) ** 2 + 3.0 * (x[2] - 2.0) ** 2


FREE = (-math.inf, math.inf)
START = ((-1.2, 1.0), (-1.0, 1.0), (-1.2, 1.2))
NELDER_MEAD_CASES = {
    "rosenbrock": (_rosenbrock, START, None),
    "rosenbrock-bounded": (_rosenbrock, START, [(-2.0, 0.5), FREE]),
    # vertices above the upper bound reflect inside, then clip at the lower
    "vertex-reflected": (_rosenbrock, ((-1.2, 1.0), (0.9, 1.0), (-1.2, 1.2)), [(-2.0, 0.5), FREE]),
    "vertex-reflected-then-clipped": (_rosenbrock, ((-1.2, 1.0), (3.5, 1.0), (-1.2, 4.0)), [(-2.0, 0.5), (0.0, 2.0)]),
    "nan": (_rosenbrock_nan_right, START, None),
    "nan-first-vertex": (_rosenbrock_nan_right, ((0.5, 0.5), (-1.0, 1.0), (-1.2, 1.2)), None),
    # numpy.clip maps -0.0 to a lower bound of 0.0; min(max(...)) would keep it
    "signed-zero-on-bound": (lambda x: x[0] + (x[1] - 0.5) ** 2, ((-0.0, 0.5), (0.5, 0.5), (0.25, 1.0)), [(0.0, 1.0), FREE]),
    "ties": (_terraces, ((0.9, 0.8), (1.3, -0.2), (-0.4, 1.1)), None),
    "constant": (lambda x: 1.0, START, None),
    "3-d": (_bowl_3d, ((0.0, 0.0, 0.0), (0.5, 0.0, 0.0), (0.0, 0.5, 0.0), (0.0, 0.0, 0.5)), None),
}


@pytest.mark.parametrize("case", list(NELDER_MEAD_CASES))
def test_nelder_mead_matches_scipy(case):
    f, simplex, bounds = NELDER_MEAD_CASES[case]
    result = _same_search_as_scipy(f, simplex, bounds=bounds, xatol=1e-8, fatol=1e-8, maxiter=4000, maxfev=8000)
    assert result.success
    if bounds is not None:
        assert all(lo <= x <= hi for x, (lo, hi) in zip(result.x, bounds))


@pytest.mark.parametrize("case", ["ties", "constant"])
def test_nelder_mead_zero_tolerances_like_scipy(case):
    # with both tolerances 0 the search stops only on an exactly collapsed
    # simplex, so the stopping test must accept equality, as scipy's does:
    # the terraces collapse; the constant's shrinks stall an ulp apart (a
    # tie rounds to even) until the evaluations run out
    f, simplex, bounds = NELDER_MEAD_CASES[case]
    result = _same_search_as_scipy(f, simplex, bounds=bounds, xatol=0.0, fatol=0.0, maxiter=4000, maxfev=8000)
    assert result.success is (case == "ties")


@pytest.mark.parametrize("maxfev", range(1, 40))
def test_nelder_mead_budget_ends_mid_iteration_like_scipy(maxfev):
    # every cut of the budget, in the first evaluations and inside each kind
    # of step, leaves the same simplex and counts; the search fails
    result = _same_search_as_scipy(
        _rosenbrock, START, bounds=[(-2.0, 0.5), FREE], xatol=1e-8, fatol=1e-8, maxiter=4000, maxfev=maxfev
    )
    assert result.nfev == maxfev
    assert not result.success


@pytest.mark.parametrize("maxiter", [1, 2, 7])
def test_nelder_mead_iteration_cap_like_scipy(maxiter):
    result = _same_search_as_scipy(_rosenbrock, START, bounds=None, xatol=1e-8, fatol=1e-8, maxiter=maxiter, maxfev=8000)
    assert result.nit == maxiter
    assert not result.success


def _within_half_the_band(f):
    """A fast form of ``f``: off by a relative 0.45 of the tie band, in a sign that flips with ``x[0]``."""
    def fast(x):
        return f(x) * (1.0 + 0.45 * _TIE_BAND * math.sin(1e7 * x[0]))

    return fast


def _counted(f, calls):
    def counting(x):
        calls.append(x)
        return f(x)

    return counting


def _same_result(a, b) -> bool:
    return np.array(a.x).tobytes() == np.array(b.x).tobytes() and a[1:] == b[1:]


@pytest.mark.parametrize("case", list(NELDER_MEAD_CASES))
def test_nelder_mead_decides_near_ties_on_the_exact_values(case):
    # a fast form within half the band of f returns the search on f alone,
    # bits and counts, with ties, NaN and bounds; the exact values are not
    # evaluations, and each point's is taken at most once
    f, simplex, bounds = NELDER_MEAD_CASES[case]
    options = dict(bounds=bounds, xatol=1e-8, fatol=1e-8, maxiter=4000, maxfev=8000)
    evaluated, asked = [], []
    result = nelder_mead(_counted(_within_half_the_band(f), evaluated), simplex, exact=_counted(f, asked), **options)
    assert _same_result(result, nelder_mead(f, simplex, **options))
    assert len(evaluated) == result.nfev
    # a point evaluated k times (the search can return to one) has its exact value taken at most k times
    points = collections.Counter(np.array(x).tobytes() for x in evaluated)
    assert not collections.Counter(np.array(x).tobytes() for x in asked) - points


def test_nelder_mead_fast_values_decide_what_they_settle():
    # values far apart are compared as they are: this search meets no near-tie
    def refuse(x):
        raise AssertionError(f"exact value asked at {x}")

    options = dict(bounds=None, xatol=1e-8, fatol=1e-8, maxiter=4000, maxfev=8000)
    expected = nelder_mead(_rosenbrock, START, **options)
    assert _same_result(nelder_mead(_rosenbrock, START, exact=refuse, **options), expected)


# fatol a power of two and values on a grid of it: two vertices on adjacent
# terraces differ by exactly fatol, which the stopping test accepts
_FATOL = 2.0**-20


def _fatol_terraces(x):
    return 1.0 + _FATOL * math.floor(4.0 * (x[0] * x[0] + x[1] * x[1]))


def test_nelder_mead_stopping_test_on_fatol_takes_the_exact_values():
    # |f0 - fk| - fatol is 0 on the exact values and within the band on the
    # fast ones: the fast values alone stop elsewhere, the tie rule where f does
    options = dict(bounds=None, xatol=1.0, fatol=_FATOL, maxiter=4000, maxfev=8000)
    simplex = ((0.9, 0.8), (1.3, -0.2), (-0.4, 1.1))
    fast = _within_half_the_band(_fatol_terraces)
    expected = nelder_mead(_fatol_terraces, simplex, **options)
    assert not _same_result(nelder_mead(fast, simplex, **options), expected)
    assert _same_result(nelder_mead(fast, simplex, exact=_fatol_terraces, **options), expected)


def _polish_searches(R_bar, config, array):
    """The ``(objective, simplex, options)`` of every polish one estimate runs;
    the options hold the product-form objective as ``exact`` when ``objective`` is its fast form."""
    searches = []

    def record(f, simplex, **options):
        searches.append((f, simplex, options))
        return nelder_mead(f, simplex, **options)

    with mock.patch("tomoments.parametric.minimize", record):
        estimate_parametric(R_bar, config, array)
    return searches


@pytest.mark.parametrize("z0_max", [None, 37.0])
@pytest.mark.parametrize("shape", ["uniform", "gaussian"])
def test_polish_matches_scipy_on_the_reference_stack(reference_covariance, reference_array, shape, z0_max):
    # the concentrated objective on sampled reference covariances, its fast
    # points against scipy on the product form alone; z0_max = 37 m is not a
    # period of the stack, so the height is bounded
    config = ParametricEstimatorConfig(assumed_shape=shape, z0_max=z0_max)
    for N in (100, 1000):
        for seed in range(5):
            R_bar = sample_covariance(sample_snapshots(reference_covariance, N, seed=seed))
            [(f, simplex, options)] = _polish_searches(R_bar, config, reference_array)
            assert (options["bounds"] is None) is (z0_max is None)
            assert options["exact"] is not None
            _same_search_as_scipy(f, simplex, **options)


@pytest.mark.parametrize("z0_frac", [0.37, 0.995])
@pytest.mark.parametrize("stack", list(IRREGULAR_STACKS))
def test_polish_matches_scipy_on_irregular_stacks(stack, z0_frac):
    # no common period, so every polish is bounded; a source at the upper
    # edge of [0, z0_max) drives trial points into the bound
    kz, z0_max = IRREGULAR_STACKS[stack]
    array = ArrayConfig(kz=np.array(kz))
    R = true_covariance(SourceProfile("gaussian", z0_frac * z0_max, 4.0, 100.0), array, 10.0)
    config = ParametricEstimatorConfig(assumed_shape="gaussian", z0_max=z0_max)
    for seed in range(4):
        R_bar = sample_covariance(sample_snapshots(R, 1000, seed=seed))
        [(f, simplex, options)] = _polish_searches(R_bar, config, array)
        assert options["exact"] is not None
        _same_search_as_scipy(f, simplex, **options)


def test_search_plan_wraps_on_a_period(reference_array):
    # 100 m is the reference stack's ambiguity: the bracket runs a step past
    # either end of the grid, and every refined height folds into [0, 100)
    plan = _search_plan(MomentEstimatorConfig(), reference_array, None)
    assert plan.bounds is None and plan.polish_bounds() is None
    assert plan.bracket(0) == (-plan.step, plan.step)
    last = plan.z_grid[-1]
    assert plan.bracket(plan.z_grid.size - 1) == (last - plan.step, last + plan.step)
    for z, folded in [(-0.5, 99.5), (-250.0, 50.0), (-1e-20, 0.0), (0.0, 0.0), (42.0, 42.0), (100.0, 0.0),
                      (100.25, 0.25), (312.5, 12.5)]:
        wrapped = plan.wrap(z)
        assert 0.0 <= wrapped < plan.z_amb
        assert wrapped == pytest.approx(folded, abs=1e-12), z


BOUNDED_SEARCHES = {
    # lags 0, 1, 3 and 7 of a 100 m ambiguity, searched on [0, 80): not a period
    "sparse": (ArrayConfig(2.0 * np.pi / 100.0 * np.array([0, 1, 3, 7]), ambiguity=100.0), 80.0),
    **{name: (ArrayConfig(kz=np.array(kz)), z0_max) for name, (kz, z0_max) in IRREGULAR_STACKS.items()},
}


@pytest.mark.parametrize("name", list(BOUNDED_SEARCHES))
def test_search_plan_bounds_a_search_without_period(name):
    # the brackets of the first and last nodes are clipped to the bounds, and
    # no refined height is moved
    array, z0_max = BOUNDED_SEARCHES[name]
    plan = _search_plan(MomentEstimatorConfig(z0_max=z0_max), array, None)
    top = math.nextafter(z0_max, 0.0)
    assert plan.bounds == (0.0, top)
    assert plan.polish_bounds() == [(0.0, top), (-math.inf, math.inf)]
    assert plan.bracket(0) == (0.0, plan.step)
    assert plan.bracket(plan.z_grid.size - 1) == (plan.z_grid[-1] - plan.step, top)
    for z in (-3.0, -1e-20, 0.0, 0.5 * z0_max, z0_max, z0_max + 7.0):
        assert plan.wrap(z) is z


@pytest.mark.parametrize("edge", ["low", "high"])
@pytest.mark.parametrize("stack", list(IRREGULAR_STACKS))
def test_fits_near_either_edge_stay_in_the_interval(stack, edge):
    # a source 0.3 m inside [0, z0_max): the best grid node is an end node,
    # whose bracket and polish are clipped, and both fits stay inside
    kz, z0_max = IRREGULAR_STACKS[stack]
    array = ArrayConfig(kz=np.array(kz))
    z0 = 0.3 if edge == "low" else z0_max - 0.3
    R = true_covariance(SourceProfile("gaussian", z0, 4.0, 100.0), array, 10.0)
    for fit in (
        estimate(R, MomentEstimatorConfig(z0_max=z0_max), array),
        estimate_parametric(R, ParametricEstimatorConfig(assumed_shape="gaussian", z0_max=z0_max), array),
    ):
        assert 0.0 <= fit.z0_hat < z0_max
        assert abs(fit.z0_hat - z0) < 1.0
