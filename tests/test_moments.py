import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomoments import (
    ArrayConfig,
    CovarianceModel,
    EstimatorSpec,
    MomentEstimatorConfig,
    SourceProfile,
    baseline_differences,
    default_spec,
    estimate,
    make_uniform_array,
    model_power_spectrum,
    sample_covariance,
    sample_snapshots,
    steering_vector,
    true_covariance,
)
from tomoments import fitting, moments
from tomoments.fitting import (
    _TIE_BAND,
    _frequency_groups,
    cost_constant,
    fit_terms,
    fit_terms_grid,
    golden_section_max,
    harmonic_terms,
    solve_quadratic,
)
from tomoments.moments import _basis_stack, _check_identifiable, _moment_plan, moment_orders

from .conftest import IRREGULAR_STACKS
from .oracles import golden_section_oracle, moment_model_covariance, random_psd_covariance, weighting, with_condition

# linear coefficients at the true height on the exact reference covariance
# (uniform truth z0=10, sigma_z=5, P=100, noise 10, M=7, z_amb=100), frozen
# from this implementation and cross-checked against the weighted
# least-squares normal equations
FROZEN_ALPHA = {
    ("identity", 4): (99.48832023992637, 10.51167976007365, 2366.663696702108, 77879.65049907131),
    ("inverse_sample", 4): (99.59491141260904, 10.41491964524009, 2331.257377645964, 75520.99826396735),
    ("identity", 6): (
        99.9782844146794,
        10.021715585320607,
        2491.351701337398,
        108505.3667702836,
        4522672.843450195,
    ),
    ("inverse_sample", 6): (
        99.98263767508406,
        10.020018748596039,
        2491.6272409519765,
        108566.8567944659,
        4531664.3969182605,
    ),
}


def _concentrate(z, R_bar, config, W, array):
    """Closed-form ``(alpha, objective)`` at height z from the basis stack."""
    stack = _basis_stack(config, array)
    R = np.asarray(R_bar.matrix)
    y, Y = fit_terms(stack, steering_vector(array, z), W, W @ R @ W)
    alpha, objective, _ = solve_quadratic(y, Y)
    return alpha, objective


def _direct_cost(R, W, array, z, stack, alpha):
    """Weighted Frobenius cost evaluated from the covariance residual."""
    Phi = np.diag(steering_vector(array, z))
    model = np.einsum("k,kmn->mn", alpha, np.stack([Phi @ H @ Phi.conj().T for H in stack]))
    vals, vecs = np.linalg.eigh(W)
    W_half = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    return float(np.linalg.norm(W_half @ (R - model) @ W_half, "fro") ** 2)


def test_regressors_hand_example():
    array = ArrayConfig(kz=np.array([0.0, 1.0]))
    config = MomentEstimatorConfig(D=2, symmetric=True, weighting="identity")
    stack = _basis_stack(config, array)
    assert stack.shape == (3, 2, 2)
    np.testing.assert_allclose(stack[0], np.ones((2, 2)), rtol=0, atol=0)
    np.testing.assert_allclose(stack[1], np.eye(2), rtol=0, atol=0)
    np.testing.assert_allclose(
        stack[2], -0.5 * np.array([[0.0, 1.0], [1.0, 0.0]]), rtol=0, atol=1e-16
    )


def test_regressor_columns_are_hermitian(reference_array):
    for symmetric in (True, False):
        config = MomentEstimatorConfig(D=5, symmetric=symmetric)
        for H in _basis_stack(config, reference_array):
            np.testing.assert_allclose(H, H.conj().T, rtol=0, atol=1e-15)


def test_moment_orders():
    assert moment_orders(MomentEstimatorConfig(D=4, symmetric=True)) == (2, 4)
    assert moment_orders(MomentEstimatorConfig(D=5, symmetric=True)) == (2, 4)
    assert moment_orders(MomentEstimatorConfig(D=4, symmetric=False)) == (2, 3, 4)
    assert moment_orders(MomentEstimatorConfig(D=2, symmetric=False)) == (2,)


def test_config_validation():
    with pytest.raises(ValueError):
        MomentEstimatorConfig(D=1)
    with pytest.raises(ValueError):
        MomentEstimatorConfig(weighting="other")
    with pytest.raises(ValueError):
        MomentEstimatorConfig(refine_tol=-1.0)
    # booleans are not lengths, although float(True) == 1.0
    for overrides in ({"refine_tol": True}, {"z0_max": True}):
        with pytest.raises(ValueError):
            MomentEstimatorConfig(**overrides)
    # JSON flags must be real booleans, not truthy strings
    with pytest.raises(ValueError):
        MomentEstimatorConfig.from_json({"symmetric": "false"})


def test_config_json_round_trip():
    config = MomentEstimatorConfig(D=6, symmetric=False, weighting="identity", refine_tol=1e-5)
    assert MomentEstimatorConfig.from_json(config.to_json()) == config
    assert config.to_json()["method"] == "moments"


def test_solve_alpha_exact_point_source(point_profile, reference_array):
    R = true_covariance(point_profile, reference_array, 10.0)
    config = MomentEstimatorConfig(D=4, symmetric=True, weighting="identity")
    W = weighting(R, "identity")
    alpha, _ = _concentrate(10.0, R, config, W, reference_array)
    np.testing.assert_allclose(alpha[:2], [100.0, 10.0], rtol=1e-9)
    np.testing.assert_allclose(alpha[2:], 0.0, atol=1e-7)


@pytest.mark.parametrize("weighting_name", ["identity", "inverse_sample"])
@pytest.mark.parametrize("D", [4, 6])
def test_solve_alpha_frozen_reference(weighting_name, D, reference_covariance, reference_array):
    config = MomentEstimatorConfig(D=D, symmetric=True, weighting=weighting_name)
    W = weighting(reference_covariance, weighting_name)
    alpha, _ = _concentrate(10.0, reference_covariance, config, W, reference_array)
    np.testing.assert_allclose(alpha, FROZEN_ALPHA[(weighting_name, D)], rtol=1e-7)


def test_higher_order_is_not_truncated(reference_covariance, reference_array):
    # regression: badly scaled nu_6 column used to be silently dropped,
    # making D=6 return the D=4 answer exactly
    W = weighting(reference_covariance, "identity")
    results = {}
    for D in (4, 6):
        config = MomentEstimatorConfig(D=D, symmetric=True, weighting="identity")
        alpha, _ = _concentrate(10.0, reference_covariance, config, W, reference_array)
        results[D] = np.sqrt(alpha[2] / alpha[0])
    assert abs(results[6] - results[4]) > 0.05
    assert abs(results[6] - 5.0) < abs(results[4] - 5.0)


def test_cost_identity_against_direct_residual(rng, reference_array):
    # vectorized concentrated cost equals the matrix-residual evaluation
    config = MomentEstimatorConfig(D=4, symmetric=False)
    stack = _basis_stack(config, reference_array)
    R = random_psd_covariance(rng, reference_array.M, scale=50.0)
    R_model = CovarianceModel(matrix=R)
    W = random_psd_covariance(rng, reference_array.M)
    WRW = W @ R @ W
    C = cost_constant(R, W)
    for _ in range(20):
        z = float(rng.uniform(0.0, 100.0))
        alpha = rng.standard_normal(stack.shape[0]) * np.array([50.0, 5.0, 1e3, 1e3, 1e4])
        y, Y = fit_terms(stack, steering_vector(reference_array, z), W, WRW)
        quadratic = C - 2.0 * float(y @ alpha) + float(alpha @ Y @ alpha)
        direct = _direct_cost(R, W, reference_array, z, stack, alpha)
        assert quadratic == pytest.approx(direct, rel=1e-9)


def test_concentration_is_optimal(rng, reference_covariance, reference_array):
    config = MomentEstimatorConfig(D=4, symmetric=True, weighting="inverse_sample")
    stack = _basis_stack(config, reference_array)
    W = weighting(reference_covariance, "inverse_sample")
    R = np.asarray(reference_covariance.matrix)
    alpha_star, _ = _concentrate(10.0, reference_covariance, config, W, reference_array)
    best = _direct_cost(R, W, reference_array, 10.0, stack, alpha_star)
    for _ in range(50):
        alpha = alpha_star * (1.0 + 0.1 * rng.standard_normal(alpha_star.size))
        assert _direct_cost(R, W, reference_array, 10.0, stack, alpha) >= best - 1e-9 * (1 + best)


def test_objective_periodic_in_ambiguity(reference_covariance, reference_array):
    config = MomentEstimatorConfig(D=4, symmetric=True, weighting="identity")
    W = weighting(reference_covariance, "identity")
    for z in (3.7, 42.0, 88.8):
        _, q = _concentrate(z, reference_covariance, config, W, reference_array)
        _, q_shift = _concentrate(z + 100.0, reference_covariance, config, W, reference_array)
        assert q == pytest.approx(q_shift, rel=1e-9)


def test_objective_peaks_at_true_height(reference_covariance, reference_array):
    config = MomentEstimatorConfig(D=4, symmetric=True, weighting="inverse_sample")
    W = weighting(reference_covariance, "inverse_sample")
    _, q0 = _concentrate(10.0, reference_covariance, config, W, reference_array)
    z_grid = np.linspace(0.0, 100.0, 400, endpoint=False)
    resolution = 100.0 / 6.0
    for z in z_grid:
        wrapped = min(abs(z - 10.0), 100.0 - abs(z - 10.0))
        if wrapped > resolution / 2.0:
            _, q = _concentrate(z, reference_covariance, config, W, reference_array)
            assert q < q0


@pytest.mark.parametrize(
    "D,tol_P,tol_sigma",
    [(4, 1.0, 3.5), (6, 0.1, 0.5)],
)
def test_estimate_exact_reference(D, tol_P, tol_sigma, reference_covariance, reference_array):
    config = MomentEstimatorConfig(D=D, symmetric=True, refine_tol=1e-6 * 100.0)
    result = estimate(reference_covariance, config, reference_array)
    assert result.z0_hat == pytest.approx(10.0, abs=1e-4)
    assert abs(result.P_hat - 100.0) < tol_P
    assert abs(result.sigma_z_hat - 5.0) / 5.0 * 100.0 < tol_sigma
    assert result.cost >= 0.0
    assert result.sigma_eps2_hat == pytest.approx(10.0, abs=1.0)


def test_estimate_point_source_is_exact(point_profile, reference_array):
    R = true_covariance(point_profile, reference_array, 10.0)
    config = MomentEstimatorConfig(refine_tol=1e-9 * 100.0)
    result = estimate(R, config, reference_array)
    assert result.z0_hat == pytest.approx(10.0, abs=1e-6)
    assert result.P_hat == pytest.approx(100.0, rel=1e-9)
    assert result.sigma_eps2_hat == pytest.approx(10.0, rel=1e-9)
    assert result.sigma_z_hat <= 1e-6
    assert result.cost == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("weighting_name", ["inverse_sample", "identity"])
@pytest.mark.parametrize("z0_frac", [0.0, 0.1, 0.37, 0.93])
@pytest.mark.parametrize("stack", list(IRREGULAR_STACKS))
def test_estimate_point_source_irregular_stack(stack, z0_frac, weighting_name):
    kz, z0_max = IRREGULAR_STACKS[stack]
    array = ArrayConfig(kz=np.array(kz))
    z0 = z0_frac * z0_max
    R = true_covariance(SourceProfile("point", z0, 0.0, 100.0), array, 10.0)
    config = MomentEstimatorConfig(refine_tol=1e-6, z0_max=z0_max, weighting=weighting_name)
    result = estimate(R, config, array)
    assert abs(result.z0_hat - z0) <= config.refine_tol
    assert result.P_hat == pytest.approx(100.0, rel=1e-9)
    assert result.sigma_eps2_hat == pytest.approx(10.0, rel=1e-9)


@pytest.mark.parametrize("z0_frac", [-0.02, 1.01])
@pytest.mark.parametrize("stack", list(IRREGULAR_STACKS))
def test_estimate_stays_in_domain_when_the_optimum_lies_outside(stack, z0_frac):
    # z0_max is not a period of a non-uniform stack, so a source just outside
    # [0, z0_max) is fitted at the nearest edge instead of wrapping
    kz, z0_max = IRREGULAR_STACKS[stack]
    array = ArrayConfig(kz=np.array(kz))
    R = true_covariance(SourceProfile("gaussian", z0_frac * z0_max, 4.0, 100.0), array, 10.0)
    config = MomentEstimatorConfig(refine_tol=1e-6, z0_max=z0_max)
    result = estimate(R, config, array)
    assert 0.0 <= result.z0_hat < z0_max
    assert min(result.z0_hat, z0_max - result.z0_hat) <= config.refine_tol


def test_estimate_wraps_height(reference_array, uniform_profile):
    shifted = dataclasses.replace(uniform_profile, z0=97.0)
    R = true_covariance(shifted, reference_array, 10.0)
    result = estimate(R, MomentEstimatorConfig(), reference_array)
    assert 0.0 <= result.z0_hat < 100.0
    wrapped = min(abs(result.z0_hat - 97.0), 100.0 - abs(result.z0_hat - 97.0))
    assert wrapped < 0.01


def test_estimate_scale_equivariant(reference_covariance, reference_array):
    config = MomentEstimatorConfig(weighting="identity")
    base = estimate(reference_covariance, config, reference_array)
    scaled_R = CovarianceModel(matrix=3.7 * reference_covariance.matrix)
    scaled = estimate(scaled_R, config, reference_array)
    assert scaled.z0_hat == pytest.approx(base.z0_hat, abs=1e-9)
    assert scaled.sigma_z_hat == pytest.approx(base.sigma_z_hat, rel=1e-9)
    assert scaled.P_hat == pytest.approx(3.7 * base.P_hat, rel=1e-9)
    assert scaled.sigma_eps2_hat == pytest.approx(3.7 * base.sigma_eps2_hat, rel=1e-9)
    np.testing.assert_allclose(scaled.nu, 3.7 * base.nu, rtol=1e-9)


def test_estimate_phase_shift_equivariant(reference_array, uniform_profile):
    config = MomentEstimatorConfig(refine_tol=1e-7 * 100.0)
    base = estimate(true_covariance(uniform_profile, reference_array, 10.0), config, reference_array)
    shifted_profile = dataclasses.replace(uniform_profile, z0=10.0 + 17.0)
    shifted = estimate(
        true_covariance(shifted_profile, reference_array, 10.0), config, reference_array
    )
    assert shifted.z0_hat == pytest.approx(base.z0_hat + 17.0, abs=1e-4)
    assert shifted.P_hat == pytest.approx(base.P_hat, rel=1e-6)
    assert shifted.sigma_z_hat == pytest.approx(base.sigma_z_hat, rel=1e-6)


def test_estimate_on_sampled_covariance(reference_covariance, reference_array):
    R_bar = sample_covariance(sample_snapshots(reference_covariance, 2000, seed=11))
    result = estimate(R_bar, MomentEstimatorConfig(), reference_array)
    assert abs(result.z0_hat - 10.0) < 0.5
    assert abs(result.P_hat - 100.0) / 100.0 < 0.10
    assert abs(result.sigma_z_hat - 5.0) / 5.0 < 0.10


def test_estimate_mu_property(reference_covariance, reference_array):
    result = estimate(reference_covariance, MomentEstimatorConfig(), reference_array)
    np.testing.assert_allclose(result.mu, result.nu / result.P_hat, rtol=1e-12)


def test_model_power_spectrum_reference(reference_covariance, reference_array):
    result = estimate(reference_covariance, MomentEstimatorConfig(D=6), reference_array)
    assert model_power_spectrum(result.P_hat, result.nu, 0.0) == pytest.approx(
        result.P_hat, rel=1e-12
    )
    xi = 0.05
    truth = 100.0 * np.sinc(np.sqrt(3.0) * 5.0 * xi / np.pi)
    assert model_power_spectrum(result.P_hat, result.nu, xi) == pytest.approx(truth, rel=5e-3)


def test_reconstruct_covariance_point_fit(point_profile, reference_array):
    R = true_covariance(point_profile, reference_array, 10.0)
    config = MomentEstimatorConfig(refine_tol=1e-9 * 100.0)
    result = estimate(R, config, reference_array)
    # nu spans d = 2..D with zeros at skipped orders; keep the fitted ones
    fitted = [result.nu[d - 2] for d in moment_orders(config)]
    alpha = np.concatenate(([result.P_hat, result.sigma_eps2_hat], fitted))
    R_hat = moment_model_covariance(result.z0_hat, alpha, config, reference_array)
    rel = np.linalg.norm(R_hat - R.matrix) / np.linalg.norm(R.matrix)
    assert rel < 1e-8


def test_default_grid_is_dense_enough(reference_array):
    assert _moment_plan(MomentEstimatorConfig(), reference_array).search.z_grid.size >= 8 * reference_array.M


def test_refinement_pinv_fallback_is_reported(reference_covariance, reference_array, monkeypatch):
    # a pseudo-inverse at a node of the interpolant's batch refuses the
    # interpolant, and the bracket refines on the product form alone; the
    # refused batch's flag is dropped with its values, and the flag of a
    # product-form refinement point reaches the diagnostics, where nothing
    # else of the estimate moves
    R_bar = sample_covariance(sample_snapshots(reference_covariance, 1000, seed=7))
    config = MomentEstimatorConfig()
    plain = estimate(R_bar, config, reference_array)
    assert not plain.diagnostics.pinv_used
    refining, fast_forms, flagged = [False], [], []
    node_solve, point_solve = fitting.solve_quadratic, moments.solve_quadratic

    def refused_batch(y, Y):
        return *node_solve(y, Y)[:2], True

    def flagging(y, Y):
        alpha, q, used_pinv = point_solve(y, Y)
        if refining[0] and flag_points:
            flagged.append(None)
            return alpha, q, True
        return alpha, q, used_pinv

    def golden(f, lo, hi, tol, exact=None):
        fast_forms.append(exact is not None)
        refining[0] = True
        try:
            return golden_section_max(f, lo, hi, tol, exact=exact)
        finally:
            refining[0] = False

    monkeypatch.setattr(fitting, "solve_quadratic", refused_batch)
    monkeypatch.setattr(moments, "solve_quadratic", flagging)
    monkeypatch.setattr(moments, "golden_section_max", golden)
    for flag_points in (False, True):
        fit = estimate(R_bar, config, reference_array)
        assert fast_forms.pop() is False
        assert bool(flagged) == flag_points
        assert fit.diagnostics == dataclasses.replace(plain.diagnostics, pinv_used=flag_points)
        for name in ("z0_hat", "P_hat", "sigma_eps2_hat", "nu", "sigma_z_hat", "cost"):
            assert np.asarray(getattr(fit, name)).tobytes() == np.asarray(getattr(plain, name)).tobytes(), name


def test_degenerate_input_raises(reference_array):
    zero = CovarianceModel(matrix=np.zeros((7, 7), dtype=complex))
    with pytest.raises(ValueError):
        estimate(zero, MomentEstimatorConfig(weighting="identity"), reference_array)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_estimate_outputs_well_formed(seed):
    array = make_uniform_array(5, 60.0)
    rng = np.random.default_rng(seed)
    R_bar = CovarianceModel(matrix=random_psd_covariance(rng, 5, scale=20.0))
    result = estimate(R_bar, MomentEstimatorConfig(), array)
    assert 0.0 <= result.z0_hat < 60.0
    assert result.sigma_z_hat >= 0.0
    assert result.cost >= 0.0
    assert np.isfinite(result.P_hat)
    assert np.isfinite(result.sigma_eps2_hat)
    assert np.all(np.isfinite(result.nu))


# (M, D, symmetric) the identifiability guard accepts over M = 3..15 and the
# whole D range: 1 + D // 2 even-order terms below the M - 1 distinct lags
IDENTIFIABLE = [
    (M, D, symmetric)
    for M in range(3, 16)
    for symmetric in (True, False)
    for D in range(2, 13)
    if 1 + D // 2 < M - 1
]


def test_identifiable_configuration_count():
    assert len(IDENTIFIABLE) == 214


@pytest.mark.parametrize("M", range(3, 16))
def test_point_source_recovered_where_identifiable(M):
    array = make_uniform_array(M, 100.0)
    R = true_covariance(SourceProfile("point", 10.0, 0.0, 100.0), array, 10.0)
    for _, D, symmetric in (c for c in IDENTIFIABLE if c[0] == M):
        result = estimate(R, MomentEstimatorConfig(D=D, symmetric=symmetric, refine_tol=1e-7), array)
        assert abs(result.z0_hat - 10.0) <= 1e-6, (D, symmetric)
        assert result.P_hat == pytest.approx(100.0, rel=1e-9), (D, symmetric)
        assert result.sigma_eps2_hat == pytest.approx(10.0, rel=1e-9), (D, symmetric)


@pytest.mark.parametrize("M, first_rejected", [(3, 2), (4, 4), (5, 6), (6, 8), (7, 10), (8, 12)])
def test_unidentifiable_configurations_raise(M, first_rejected):
    # from that D on, the even-order terms fit the half-ambiguity twin
    # (z0 + z_amb / 2, negative power) exactly; it used to be returned
    array = make_uniform_array(M, 100.0)
    R = true_covariance(SourceProfile("point", 10.0, 0.0, 100.0), array, 10.0)
    for symmetric in (True, False):
        for D in range(2, 13):
            config = MomentEstimatorConfig(D=D, symmetric=symmetric)
            if D < first_rejected:
                estimate(R, config, array)
                continue
            message = rf"D={D}, symmetric={symmetric} .* M={M} "
            with pytest.raises(ValueError, match=message):
                estimate(R, config, array)
            with pytest.raises(ValueError, match=message):
                default_spec("rmse_vs_N", array=array, estimators=(EstimatorSpec("m", config),))


def test_identifiability_guard_skips_arrays_without_ambiguity():
    kz, z0_max = IRREGULAR_STACKS["M5"]
    array = ArrayConfig(kz=np.array(kz))
    R = true_covariance(SourceProfile("point", 30.0, 0.0, 100.0), array, 10.0)
    estimate(R, MomentEstimatorConfig(D=12, z0_max=z0_max), array)


# relative singular-value cutoff of the span test below; the smallest relative
# singular value of any matrix it ranks is about 1.5e-5, far above it
_SPAN_RANK_TOL = 1e-9


def _rank(columns) -> int:
    """Rank of the column-normalized matrix, with singular values below
    ``_SPAN_RANK_TOL`` of the largest counted as zero."""
    A = np.column_stack(columns)
    singular = np.linalg.svd(A / np.linalg.norm(A, axis=0), compute_uv=False)
    return int(np.count_nonzero(singular > _SPAN_RANK_TOL * singular[0]))


@pytest.mark.parametrize("lags", [(0, 1, 3, 7), (0, 2, 3, 8, 11)])
def test_lag_rule_refuses_exactly_when_the_twin_lies_in_the_even_span(lags):
    # the half-ambiguity twin multiplies the covariance at lag l by (-1)^l; the
    # even-order responses f^(2k), k = 0..D // 2, fit it exactly (the noise
    # absorbs lag 0) when that sign pattern over the distinct nonzero lags lies
    # in their span, which the lag rule must decide on sparse stacks too
    array = ArrayConfig(2.0 * np.pi / 100.0 * np.array(lags), ambiguity=100.0)
    distinct = np.unique(np.abs(np.subtract.outer(lags, lags)))[1:].astype(float)
    twin = (-1.0) ** distinct
    for D in range(2, 13):
        # f = 2 pi l / 100: scaling a column by (2 pi / 100)^(2k) keeps the span
        responses = [distinct ** (2 * k) for k in range(D // 2 + 1)]
        in_span = _rank([*responses, twin]) == _rank(responses)
        for symmetric in (True, False):
            config = MomentEstimatorConfig(D=D, symmetric=symmetric)
            if in_span:
                with pytest.raises(ValueError, match="not identifiable"):
                    _check_identifiable(config, array)
            else:
                _check_identifiable(config, array)


_LAG_SETS = st.lists(st.integers(0, 40), min_size=2, max_size=10, unique=True).map(sorted)


@st.composite
def _stacks(draw):
    """A uniform stack, a sparse stack on an ambiguity, or free wavenumbers with none."""
    kind = draw(st.sampled_from(("uniform", "sparse", "free")))
    z_amb = draw(st.floats(1.0, 1e4))
    if kind == "uniform":
        return make_uniform_array(draw(st.integers(2, 12)), z_amb)
    if kind == "sparse":
        offset = draw(st.floats(-1.0, 1.0))
        return ArrayConfig(offset + 2.0 * math.pi / z_amb * np.array(draw(_LAG_SETS), dtype=float), ambiguity=z_amb)
    kz = draw(st.lists(st.integers(-1000, 1000), min_size=2, max_size=10, unique=True))
    return ArrayConfig(np.array(sorted(kz)) / draw(st.floats(10.0, 1e3)))


def _merge_tolerance(array) -> float:
    """The grouping's tolerance: ``_BASELINE_ULPS`` units in the last place of the largest ``|kz|``."""
    return fitting._BASELINE_ULPS * float(np.spacing(max(abs(k) for k in array.kz.tolist())))


def _grouped_baselines(array) -> list:
    """Oracle of the grouping rule on Python floats: the sorted ``|kz_m - kz_n|``,
    cut into groups of the values within the tolerance of each group's first,
    smallest value; ``[group, ...]`` with each group a sorted list."""
    tolerance = _merge_tolerance(array)
    groups = []
    for value in sorted(abs(a - b) for a in array.kz.tolist() for b in array.kz.tolist()):
        if groups and value - groups[-1][0] <= tolerance:
            groups[-1].append(value)
        else:
            groups.append([value])
    return groups


@settings(max_examples=80, deadline=None)
@given(array=_stacks())
def test_distinct_lags_and_baselines_follow_the_grouping_rule(array):
    # the lag count of _check_identifiable and the spectrum dump's distinct
    # baselines are the f >= 0 half of the cached baseline frequencies: one
    # per group of the oracle, its smallest value, bit for bit
    groups = _grouped_baselines(array)
    frequencies = _frequency_groups(array)[0]
    distinct = frequencies[frequencies.size // 2 :]
    assert distinct.dtype == np.float64
    assert distinct.tolist() == [group[0] for group in groups]
    if array.ambiguity is None:
        return
    lags = np.rint(np.abs(baseline_differences(array)) * (array.ambiguity / (2.0 * math.pi)))
    count = int(np.count_nonzero(np.unique(lags)))
    for D in range(2, 13):
        config = MomentEstimatorConfig(D=D)
        if 1 + D // 2 >= count:
            with pytest.raises(ValueError, match=f" fit all {count} distinct lags "):
                _check_identifiable(config, array)
        else:
            _check_identifiable(config, array)


@pytest.mark.parametrize("z_amb", [1.0, 37.0, 100.0, 1e4])
@pytest.mark.parametrize("M", range(2, 16))
def test_uniform_stack_has_one_frequency_per_baseline(M, z_amb):
    # 2 M - 1 frequencies, 0 and the +-n * 2 pi / z_amb, n < M, each within
    # the tolerance of every pair it holds, whose differences are those
    # multiples to rounding
    array = make_uniform_array(M, z_amb)
    frequencies, members = _frequency_groups(array)
    assert frequencies.size == 2 * M - 1
    np.testing.assert_allclose(frequencies, 2.0 * math.pi / z_amb * np.arange(1 - M, M), rtol=1e-14, atol=0.0)
    assigned = frequencies @ members
    assert np.abs(assigned - baseline_differences(array).reshape(-1)).max() <= _merge_tolerance(array)


@settings(max_examples=80, deadline=None)
@given(array=_stacks())
def test_frequency_groups_pair_every_baseline_once_in_exact_pairs(array):
    # every (m, n) pair sits in exactly one group, whose frequency is within
    # the tolerance of its difference; the frequencies rise strictly, come in
    # exact pairs +-f and hold 0 exactly at F // 2
    frequencies, members = _frequency_groups(array)
    assert set(np.unique(members)) <= {0.0, 1.0}
    assert (members.sum(axis=0) == 1.0).all() and (members.sum(axis=1) >= 1.0).all()
    differences = baseline_differences(array).reshape(-1)
    assert np.abs(frequencies @ members - differences).max() <= _merge_tolerance(array)
    assert (np.diff(frequencies) > 0.0).all()
    assert frequencies.tolist() == [-f for f in frequencies[::-1].tolist()]
    assert frequencies.size % 2 == 1 and frequencies[frequencies.size // 2] == 0.0


@pytest.mark.parametrize("ulps, merged", [(2, True), (8, True), (64, False), (2**20, False)])
def test_baselines_apart_by_more_than_the_tolerance_stay_apart(ulps, merged):
    # kz = 0, 1, 2 + ulps units of 2: the baselines 1 and 1 + ulps units of 2
    # are one frequency within the 16-unit tolerance and two beyond it
    kz = np.array([0.0, 1.0, 2.0 + ulps * np.spacing(2.0)])
    frequencies = _frequency_groups(ArrayConfig(kz))[0]
    positive = frequencies[frequencies.size // 2 + 1 :]
    assert positive.size == (2 if merged else 3)
    assert positive[0] == 1.0 and positive[-1] == kz[2]


@pytest.mark.parametrize("name", list(IRREGULAR_STACKS))
def test_irregular_stacks_keep_their_frequencies(name):
    # the irregular stacks' baselines lie far apart but for one: on M7-signed
    # -0.021 - (-0.06) and 0.139 - 0.1, both 0.039, round 1.4e-17 apart and
    # are one frequency, the smaller; every other frequency of the exact
    # grouping (np.unique) keeps its bits
    array = ArrayConfig(kz=np.array(IRREGULAR_STACKS[name][0]))
    expected = np.unique(baseline_differences(array))
    if name == "M7-signed":
        near = sorted({abs(-0.021 - -0.06), abs(0.139 - 0.1)})
        assert len(near) == 2 and near[1] - near[0] <= _merge_tolerance(array)
        expected = expected[np.abs(expected) != near[1]]
    assert _frequency_groups(array)[0].tobytes() == expected.tobytes()


# (z0, sigma_z, P, sigma_eps2) on the exact reference covariance, unchanged by
# the identifiability guard: frozen from the implementation before it
REFERENCE_UP_TO_ORDER_8 = {
    (2, True): (12.396839895894672, 3.10622922684364, 74.6310589720935, 10.533410760016077),
    (3, True): (12.396839895894672, 3.10622922684364, 74.6310589720935, 10.533410760016077),
    (4, True): (10.000610947863215, 4.838118810861643, 99.59490847008027, 10.414919611202988),
    (5, True): (10.000610947863215, 4.838118810861643, 99.59490847008027, 10.414919611202988),
    (6, True): (10.000610947863215, 4.992053511781728, 99.98263462597986, 10.02001874838954),
    (7, True): (10.000610947863215, 4.992053511781728, 99.98263462597986, 10.02001874838954),
    (8, True): (10.000610947863215, 4.999748780377009, 99.99955196156107, 10.000457321073908),
    (2, False): (12.396839895894672, 3.10622922684364, 74.6310589720935, 10.533410760016077),
    (3, False): (12.400838601572797, 3.082573576524516, 73.83286267187495, 10.497452851200284),
    (4, False): (10.000610947863215, 4.838118841895469, 99.59490961025092, 10.414919620462982),
    (5, False): (10.000610947863215, 4.838118864362137, 99.59490972287482, 10.414919657022628),
    (6, False): (10.000610947863215, 4.992053583646035, 99.98263597932873, 10.020018753492211),
    (7, False): (10.000610947863215, 4.992053583747918, 99.98263597488183, 10.020018753313327),
    (8, False): (10.000610947863215, 4.999748853441984, 99.99955331334142, 10.000457322664692),
}


@pytest.mark.parametrize("D, symmetric", list(REFERENCE_UP_TO_ORDER_8))
def test_reference_stack_up_to_order_8_unchanged(reference_covariance, reference_array, D, symmetric):
    result = estimate(reference_covariance, MomentEstimatorConfig(D=D, symmetric=symmetric), reference_array)
    fitted = (result.z0_hat, result.sigma_z_hat, result.P_hat, result.sigma_eps2_hat)
    assert fitted == pytest.approx(REFERENCE_UP_TO_ORDER_8[D, symmetric], rel=1e-9)
    assert not result.diagnostics.negative_power


@pytest.mark.parametrize("D, symmetric", [(4, True), (4, False), (8, True)])
def test_negative_power_twin_is_flagged(reference_array, D, symmetric):
    # a source as wide as 0.15 z_amb on the reference stack is fitted, on its
    # exact covariance, by the half-ambiguity twin with a negative power: the
    # power gets its own flag, and the spread stays clamped as before
    R = true_covariance(SourceProfile("uniform", 10.0, 15.0, 100.0), reference_array, 10.0)
    result = estimate(R, MomentEstimatorConfig(D=D, symmetric=symmetric), reference_array)
    assert result.P_hat < 0.0
    assert result.z0_hat == pytest.approx(60.0, abs=0.01)
    assert result.diagnostics.negative_power
    assert result.diagnostics.clamped_sigma


GRID_ORACLE_ARRAYS = {
    "reference": (make_uniform_array(7, 100.0), None),
    "M7-signed": (ArrayConfig(kz=np.array(IRREGULAR_STACKS["M7-signed"][0])), IRREGULAR_STACKS["M7-signed"][1]),
}


@pytest.mark.parametrize("symmetric", [False, True], ids=["full", "sym"])
@pytest.mark.parametrize("name", list(GRID_ORACLE_ARRAYS))
def test_grid_argmax_matches_product_form(name, symmetric):
    # the moment grid from the Gram form picks the same height as the product
    # form fit_terms, height by height, on sampled covariances
    array, z0_max = GRID_ORACLE_ARRAYS[name]
    config = MomentEstimatorConfig(D=4, symmetric=symmetric, z0_max=z0_max)
    plan = _moment_plan(config, array)
    R_true = true_covariance(SourceProfile("uniform", 10.0, 5.0, 100.0), array, 10.0)
    steering = [steering_vector(array, z) for z in plan.search.z_grid]
    for N in (100, 1000, 10000):
        for seed in range(4):
            R_bar = sample_covariance(sample_snapshots(R_true, N, seed=seed))
            W = weighting(R_bar, "inverse_sample")
            WRW = W @ R_bar.matrix @ W
            gram = solve_quadratic(*fit_terms_grid(plan.weighted, harmonic_terms(array, W, WRW)))[1]
            points = np.array([solve_quadratic(*fit_terms(plan.stack, a, W, WRW))[1] for a in steering])
            assert np.argmax(gram) == np.argmax(points)
            np.testing.assert_allclose(gram, points, rtol=1e-10, atol=1e-12 * np.abs(points).max())


def _fits_equal(a, b) -> bool:
    """Two estimates with the same bits in every field."""
    return all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
    )


@pytest.mark.parametrize("symmetric", [False, True], ids=["full", "sym"])
def test_plan_cache_is_transparent(reference_covariance, reference_array, symmetric):
    # every estimate has the same bits from a cold and from a warm cache
    config = MomentEstimatorConfig(D=4, symmetric=symmetric)
    for seed in range(3):
        R_bar = sample_covariance(sample_snapshots(reference_covariance, 1000, seed=seed))
        _moment_plan.cache_clear()
        cold = estimate(R_bar, config, reference_array)
        assert _moment_plan.cache_info().misses == 1
        warm = estimate(R_bar, config, make_uniform_array(7, 100.0))
        assert _moment_plan.cache_info().hits == 1
        assert _fits_equal(cold, warm)


def test_equal_arrays_share_one_plan():
    _moment_plan.cache_clear()
    config = MomentEstimatorConfig()
    first, second = make_uniform_array(7, 100.0), make_uniform_array(7, 100.0)
    assert first is not second
    assert _moment_plan(config, first) is _moment_plan(config, second)
    assert _moment_plan.cache_info().currsize == 1
    assert _moment_plan(config, make_uniform_array(7, 90.0)) is not _moment_plan(config, first)


def test_unidentifiable_config_raises_on_every_call():
    array = make_uniform_array(7, 100.0)
    R = true_covariance(SourceProfile("point", 10.0, 0.0, 100.0), array, 10.0)
    config = MomentEstimatorConfig(D=10)
    for _ in range(3):
        with pytest.raises(ValueError, match="not identifiable"):
            estimate(R, config, array)


def test_cached_plan_arrays_are_read_only(reference_array):
    plan = _moment_plan(MomentEstimatorConfig(), reference_array)
    tables = [plan.stack, plan.weighted, plan.search.z_grid, plan.search.frequencies, plan.search.phase]
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 0.0


REFINEMENT_ARRAYS = {
    "reference": (make_uniform_array(7, 100.0), None),
    "M9": (make_uniform_array(9, 73.0), None),
    **{name: (ArrayConfig(kz=np.array(kz)), z0_max) for name, (kz, z0_max) in IRREGULAR_STACKS.items()},
}


@pytest.mark.parametrize("name", list(REFINEMENT_ARRAYS))
def test_harmonic_terms_have_the_bits_of_the_kronecker_form(name, rng):
    # harmonic_terms builds np.kron(L.conj(), L) as one broadcast product,
    # each entry the same single complex multiply: its Gram rows keep every
    # bit of the Kronecker form, under random weightings and the
    # inverse-sample weighting of a sampled covariance
    array = REFINEMENT_ARRAYS[name][0]
    R = true_covariance(SourceProfile("uniform", 10.0, 5.0, 100.0), array, 10.0)
    Ws = [random_psd_covariance(rng, array.M) for _ in range(3)]
    Ws.append(weighting(sample_covariance(sample_snapshots(R, 1000, seed=5)), "inverse_sample"))
    frequencies, members = _frequency_groups(array)
    for W in Ws:
        L = np.linalg.cholesky(W)
        Gamma = members @ np.kron(L.conj(), L)
        Q = Gamma[frequencies.size // 2 :].conj() @ Gamma.T
        assert harmonic_terms(array, W, W @ R.matrix @ W).Q.tobytes() == Q.tobytes()


def _refinement_cases(name, weighting_name):
    """``(config, covariance)`` pairs on one array: every identifiable config
    at D = 2..8, full and symmetric, with ``refine_tol`` at its default, 1e-6
    and 1e-9 of the interval, on the exact covariance of a uniform source, a
    sampled one (N = 1000) and the exact covariance of a point source."""
    array, z0_max = REFINEMENT_ARRAYS[name]
    z_amb = z0_max or array.ambiguity
    uniform = true_covariance(SourceProfile("uniform", 0.3 * z_amb, 0.05 * z_amb, 100.0), array, 10.0)
    point = true_covariance(SourceProfile("point", 0.37 * z_amb, 0.0, 100.0), array, 10.0)
    covariances = (uniform, sample_covariance(sample_snapshots(uniform, 1000, seed=5)), point)
    for D in range(2, 9):
        for symmetric in (True, False):
            for refine_tol in (None, 1e-6, 1e-9 * z_amb):
                config = MomentEstimatorConfig(
                    D=D, symmetric=symmetric, weighting=weighting_name, refine_tol=refine_tol, z0_max=z0_max
                )
                try:
                    _moment_plan(config, array)
                except ValueError:  # not identifiable on this array
                    continue
                for R_bar in covariances:
                    yield config, R_bar


def _same_bits(a, b) -> bool:
    """Two moment estimates with the same diagnostics and the same bits in every number."""
    return a.diagnostics == b.diagnostics and all(
        np.asarray(getattr(a, name)).tobytes() == np.asarray(getattr(b, name)).tobytes()
        for name in ("z0_hat", "P_hat", "sigma_eps2_hat", "nu", "sigma_z_hat", "cost")
    )


@pytest.mark.parametrize("weighting_name", ["identity", "inverse_sample"])
@pytest.mark.parametrize("name", list(REFINEMENT_ARRAYS))
def test_estimate_equals_the_product_form_refinement(name, weighting_name, monkeypatch):
    # the golden section on the bracket's interpolant, near-ties compared on
    # the product form, or on the product form alone where the interpolant is
    # refused, returns the fit of the golden section on the product form
    # alone, in every field and bit
    array = REFINEMENT_ARRAYS[name][0]
    cases = list(_refinement_cases(name, weighting_name))
    fits = [estimate(R_bar, config, array) for config, R_bar in cases]
    monkeypatch.setattr(
        "tomoments.moments.golden_section_max",
        lambda f, lo, hi, tol, exact=None: golden_section_oracle(exact or f, lo, hi, tol),
    )
    for index, ((config, R_bar), fit) in enumerate(zip(cases, fits)):
        assert _same_bits(fit, estimate(R_bar, config, array)), (index, config)


# the least share of brackets the interpolant must serve in each case set of
# the test below; the one set of cases it refuses by design, the exact point
# source under inverse-sample weighting, whose objective peaks too sharply
# for 21 nodes, is a third of every inverse-sample set
_SERVED_SHARE_MIN = 0.6


def _recording_gaps(monkeypatch):
    """Lists ``gaps`` and ``brackets`` that the moment fits' refinements fill
    from here on: whether each bracket had the interpolant, and the relative
    gap between it and the product form at every height that the golden
    section on the product form alone visits in a bracket that had it."""
    gaps, brackets = [], []

    def recording(f, lo, hi, tol, exact=None):
        brackets.append(exact is not None)
        if exact is None:
            return golden_section_oracle(f, lo, hi, tol)

        def both(z):
            fast, product = f(z), exact(z)
            gaps.append(abs(fast - product) / abs(product))
            return product

        return golden_section_oracle(both, lo, hi, tol)

    monkeypatch.setattr("tomoments.moments.golden_section_max", recording)
    return gaps, brackets


@pytest.mark.parametrize("weighting_name", ["identity", "inverse_sample"])
@pytest.mark.parametrize("name", list(REFINEMENT_ARRAYS))
def test_fast_point_form_is_within_a_tenth_of_the_tie_band(name, weighting_name, monkeypatch):
    # the premise of the near-tie rule: at every height the product-form
    # refinement visits, the bracket's interpolant is within a tenth of the
    # band of it, on most brackets, the rest refused
    array = REFINEMENT_ARRAYS[name][0]
    gaps, brackets = _recording_gaps(monkeypatch)
    for config, R_bar in _refinement_cases(name, weighting_name):
        estimate(R_bar, config, array)
    assert sum(brackets) >= _SERVED_SHARE_MIN * len(brackets)
    assert len(gaps) > 1000
    assert max(gaps) <= _TIE_BAND / 10


@pytest.mark.parametrize("name", list(REFINEMENT_ARRAYS))
def test_fast_point_form_is_within_half_the_tie_band_up_to_the_condition_limit(name, monkeypatch):
    # the premise of the near-tie rule on inverse-sample weightings up to the
    # fast forms' condition limit: covariances sampled at N = M..3M, each also
    # stretched to just below the limit, fitted at every identifiable D =
    # 2..8, full and symmetric.  Every bracket the interpolant serves is
    # within half the band of the product form, as the rule needs; near the
    # limit an irregular stack's gap exceeds the tenth of the band that the
    # test above holds at N = 1000
    array, z0_max = REFINEMENT_ARRAYS[name]
    z_amb = z0_max or array.ambiguity
    truth = true_covariance(SourceProfile("uniform", 0.3 * z_amb, 0.05 * z_amb, 100.0), array, 10.0)
    configs = []
    for D in range(2, 9):
        for symmetric in (True, False):
            config = MomentEstimatorConfig(D=D, symmetric=symmetric, z0_max=z0_max)
            try:
                _moment_plan(config, array)
            except ValueError:  # not identifiable on this array
                continue
            configs.append(config)
    gaps, brackets = _recording_gaps(monkeypatch)
    conditions = []
    for N in range(array.M, 3 * array.M):
        R_bar = sample_covariance(sample_snapshots(truth, N, seed=N))
        for R in (R_bar, with_condition(R_bar, 0.999 * fitting._FAST_CONDITION_LIMIT)):
            covariance = fitting.PreparedCovariance(R, array, "inverse_sample")
            if covariance.condition <= fitting._FAST_CONDITION_LIMIT:
                conditions.append(covariance.condition)
            for config in configs:
                estimate(covariance, config, array)
    assert max(conditions) > 0.99 * fitting._FAST_CONDITION_LIMIT
    assert len(gaps) > 1000
    assert max(gaps) <= _TIE_BAND / 2


def _product_form_search(R_bar, config, array) -> float:
    """The height of the moment fit on the product form alone: a product-form
    grid, its best node's bracket and the golden section on product-form values."""
    plan = _moment_plan(config, array)
    W = weighting(R_bar, config.weighting)
    WRW = W @ np.asarray(R_bar.matrix) @ W

    def objective(z):
        return solve_quadratic(*fit_terms(plan.stack, steering_vector(array, z), W, WRW))[1]

    best = int(np.argmax([objective(z) for z in plan.search.z_grid]))
    return plan.search.wrap(golden_section_oracle(objective, *plan.search.bracket(best), plan.search.refine_tol))


def _ill_conditioned_covariances(reference_array):
    """Noiseless exact covariances of the reference source at sigma_z 0, 2 and
    5 m, and reference covariances sampled at N = 2, 4 and 6 < M."""
    for sigma_z in (0.0, 2.0, 5.0):
        yield true_covariance(SourceProfile("uniform", 10.0, sigma_z, 100.0), reference_array, 0.0)
    reference = true_covariance(SourceProfile("uniform", 10.0, 5.0, 100.0), reference_array, 10.0)
    for N in (2, 4, 6):
        for seed in range(4):
            yield sample_covariance(sample_snapshots(reference, N, seed=seed))


@pytest.mark.parametrize("symmetric", [False, True], ids=["full", "sym"])
def test_ill_conditioned_weighting_fits_on_the_product_form(reference_array, symmetric):
    # above the fast forms' condition limit the Gram form cancels, so the grid
    # and the refinement run on the product form: the fit returns the height
    # of the search on the product form alone
    config = MomentEstimatorConfig(D=4, symmetric=symmetric)
    for index, R_bar in enumerate(_ill_conditioned_covariances(reference_array)):
        covariance = fitting.PreparedCovariance(R_bar, reference_array, config.weighting)
        assert covariance.condition > fitting._FAST_CONDITION_LIMIT, index
        expected = _product_form_search(R_bar, config, reference_array)
        assert estimate(covariance, config, reference_array).z0_hat == expected, index
