import dataclasses
from unittest import mock

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
    SourceProfile,
    estimate_parametric,
    make_uniform_array,
    sample_covariance,
    sample_snapshots,
    steering_vector,
    true_covariance,
)
from tomoments.experiments import ExperimentSpec, default_spec
from tomoments.fitting import (
    _FAST_CONDITION_LIMIT,
    _TIE_BAND,
    PreparedCovariance,
    cost_constant,
    fit_terms,
    harmonic_terms,
    nelder_mead,
    shape_terms_grid,
)
from tomoments.parametric import (
    _concentrate_pair,
    _concentrate_terms,
    _gram_point_evaluator,
    _parametric_plan,
    _point_evaluator,
)
from tomoments.profiles import shape_characteristic, shape_matrix

from .conftest import IRREGULAR_STACKS
from .oracles import random_psd_covariance, weighting, with_condition

TIGHT = ParametricEstimatorConfig(refine_tol=1e-9 * 100.0)


def _terms(y, Y):
    """The five terms ``(y1, y2, Y11, Y12, Y22)`` of ``y (..., 2)`` and ``Y (..., 2, 2)``."""
    return y[..., 0], y[..., 1], Y[..., 0, 0], Y[..., 0, 1], Y[..., 1, 1]


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


@pytest.mark.parametrize("weighting_name", ["inverse_sample", "identity"])
@pytest.mark.parametrize("shape", ["uniform", "gaussian"])
@pytest.mark.parametrize("z0_frac", [0.0, 0.1, 0.37, 0.93])
@pytest.mark.parametrize("stack", list(IRREGULAR_STACKS))
def test_point_source_irregular_stack(stack, z0_frac, shape, weighting_name):
    kz, z0_max = IRREGULAR_STACKS[stack]
    array = ArrayConfig(kz=np.array(kz))
    z0 = z0_frac * z0_max
    R = true_covariance(SourceProfile("point", z0, 0.0, 100.0), array, 10.0)
    config = ParametricEstimatorConfig(
        assumed_shape=shape, weighting=weighting_name, refine_tol=1e-6, z0_max=z0_max
    )
    result = estimate_parametric(R, config, array)
    assert abs(result.z0_hat - z0) <= config.refine_tol
    assert result.sigma_z_hat == 0.0
    assert result.P_hat == pytest.approx(100.0, rel=1e-8)
    assert result.sigma_eps2_hat == pytest.approx(10.0, rel=1e-8)


@pytest.mark.parametrize("z0_frac", [-0.02, 1.01])
@pytest.mark.parametrize("stack", list(IRREGULAR_STACKS))
def test_stays_in_domain_when_the_optimum_lies_outside(stack, z0_frac):
    # z0_max is not a period of a non-uniform stack, so a source just outside
    # [0, z0_max) is fitted at the nearest edge, with the spread fitted there
    kz, z0_max = IRREGULAR_STACKS[stack]
    array = ArrayConfig(kz=np.array(kz))
    R = true_covariance(SourceProfile("gaussian", z0_frac * z0_max, 4.0, 100.0), array, 10.0)
    config = ParametricEstimatorConfig(assumed_shape="gaussian", refine_tol=1e-6, z0_max=z0_max)
    result = estimate_parametric(R, config, array)
    assert 0.0 <= result.z0_hat < z0_max
    assert min(result.z0_hat, z0_max - result.z0_hat) <= config.refine_tol
    W = weighting(R, config.weighting)
    WRW = W @ R.matrix @ W
    a = steering_vector(array, result.z0_hat)
    for sigma in result.sigma_z_hat * np.array([0.9, 0.97, 1.03, 1.1]):
        basis = np.stack([shape_matrix(SourceProfile("gaussian", 0.0, sigma, 1.0), array), np.eye(array.M)])
        q = _concentrate_terms(*_terms(*fit_terms(basis, a, W, WRW)))[2]
        assert result.cost <= cost_constant(R.matrix, W) - q + 1e-9


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
        P, noise, q, degenerate = _concentrate_terms(*_terms(y, Y))
        assert np.ndim(P) == np.ndim(noise) == np.ndim(q) == np.ndim(degenerate) == 0
        alpha = np.array([P, noise])
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
    P, noise, q, degenerate = _concentrate_terms(*_terms(np.array([1.0, 1.0]), np.ones((2, 2))))
    assert degenerate
    assert P >= 0.0 and noise >= 0.0
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
    P, noise, q, degenerate = _concentrate_terms(*_terms(batch_y, batch_Y))
    assert P.shape == noise.shape == q.shape == degenerate.shape == (3, 6)
    seen = {"interior": 0, "edge": 0, "degenerate": 0}
    for index in np.ndindex(3, 6):
        P_i, noise_i, q_i, d_i = _concentrate_terms(*_terms(batch_y[index], batch_Y[index]))
        np.testing.assert_array_equal([P[index], noise[index]], [P_i, noise_i])
        assert q[index] == q_i and degenerate[index] == d_i
        kind = "degenerate" if d_i else ("interior" if P_i > 0.0 and noise_i > 0.0 else "edge")
        seen[kind] += 1
    assert min(seen.values()) > 0


def _bits(*values):
    return np.array(values, dtype=float).tobytes()


def test_concentrate_pair_is_bit_identical_to_the_array_form(rng):
    # the six hand systems of the batch test, det = 0 with a positive diagonal,
    # a zero y2 of either sign, and random systems; every output bit matches
    # the array form on the batch and on each system alone
    y = np.array(
        [[1.0, 1.0], [1.0, -5.0], [-5.0, 1.0], [1.0, 1.0], [2.0, 0.5], [-1.0, -1.0],
         [3.0, 2.0], [1.0, -0.0], [-0.0, -0.0], [-1.0, 0.0]]
    )
    Y = np.array(
        [
            [[2.0, 0.5], [0.5, 1.0]],
            [[2.0, 0.5], [0.5, 1.0]],
            [[2.0, 0.5], [0.5, 1.0]],
            [[1.0, 1.0], [1.0, 1.0]],
            [[0.0, 0.0], [0.0, 3.0]],
            [[1.0, 0.2], [0.2, 1.0]],
            [[4.0, 2.0], [2.0, 1.0]],
            [[2.0, 0.5], [0.5, 1.0]],
            [[2.0, 0.5], [0.5, 1.0]],
            [[2.0, 0.5], [0.5, 1.0]],
        ]
    )
    extra = rng.standard_normal((200, 2, 2)) * rng.choice([1e-3, 1.0, 1e3], (200, 1, 1))
    y = np.concatenate([y, 10.0 * rng.standard_normal((200, 2))])
    Y = np.concatenate([Y, extra @ np.swapaxes(extra, -1, -2)])
    P_all, noise_all, q, degenerate = _concentrate_terms(*_terms(y, Y))
    kinds = set()
    for i in range(y.shape[0]):
        P, noise, q_i, d_i = _concentrate_pair(*_terms(y[i], Y[i]))
        assert _bits(P, noise, q_i) == _bits(P_all[i], noise_all[i], q[i])
        assert d_i is bool(degenerate[i])
        alone = _concentrate_terms(*_terms(y[i], Y[i]))
        assert _bits(P, noise, q_i) == _bits(*alone[:3])
        kinds.add("degenerate" if d_i else ("interior" if P > 0.0 and noise > 0.0 else "edge"))
    assert kinds == {"degenerate", "interior", "edge"}
    # the seventh system has det = 0 exactly; a signed zero reaches the
    # objective of the last hand system (0.0 * -1.0), which the bit
    # comparison above covers
    assert _concentrate_pair(3.0, 2.0, 4.0, 2.0, 1.0)[3]
    assert np.signbit(q[9])


# the point evaluator's arrays: the reference stack, the irregular stacks and
# a uniform stack of another size and ambiguity, each with its height interval
POINT_ARRAYS = {
    "reference": (make_uniform_array(7, 100.0), 100.0),
    **{name: (ArrayConfig(kz=np.array(kz)), z_max) for name, (kz, z_max) in IRREGULAR_STACKS.items()},
    "uniform-M9": (make_uniform_array(9, 73.0), 73.0),
}


@pytest.mark.parametrize(
    "shape, name",
    [
        pytest.param(shape, name, id=shape if name == "reference" else f"{shape}-{name}")
        for shape in ("uniform", "gaussian")
        for name in POINT_ARRAYS
    ],
)
def test_point_evaluator_matches_array_concentration(rng, shape, name):
    # the polish evaluator against a fresh (shape, identity) stack built by
    # shape_matrix and the array concentrator, bit for bit, at random points
    # including negative and zero spreads: the evaluator's difference table
    # follows its array, its shape column skips shape_matrix's Hermitian
    # average, and the reused stack carries nothing between calls
    array, z_max = POINT_ARRAYS[name]
    R_bar = random_psd_covariance(rng, array.M, scale=50.0)
    W = weighting(CovarianceModel(R_bar), "inverse_sample")
    WRW = W @ R_bar @ W
    evaluate = _point_evaluator(shape, array, W, WRW)
    sigmas = np.concatenate([[0.0, -0.0, -7.5, 7.5], rng.uniform(-0.3, 0.3, 496) * z_max])
    for sigma in sigmas:
        z = rng.uniform(-0.2, 1.2) * z_max
        profile = SourceProfile(shape, 0.0, abs(float(sigma)), 1.0)
        stack = np.stack([shape_matrix(profile, array), np.eye(array.M)])
        P_array, noise_array, q, degenerate = _concentrate_terms(
            *_terms(*fit_terms(stack, steering_vector(array, z), W, WRW))
        )
        P, noise, q_point, d_point = evaluate(np.array([z, sigma]))
        assert _bits(P, noise, q_point) == _bits(P_array, noise_array, q)
        assert d_point is bool(degenerate)
        assert type(q_point) is float


@pytest.mark.parametrize("profile", ["uniform_profile", "point_profile"])
@pytest.mark.parametrize("shape", ["uniform", "gaussian"])
def test_polish_points_go_through_fit_terms(request, reference_array, profile, shape, monkeypatch):
    # the polish takes its points in the Gram form: the module global
    # tomoments.parametric.fit_terms, the name a tracer patches to time the
    # product form, is called once per near-tie point, for the final point and,
    # when the polish ends off zero spread, for the zero-spread point; the
    # estimate is the exact-only polish's in every field
    R = true_covariance(request.getfixturevalue(profile), reference_array, 10.0)
    config = ParametricEstimatorConfig(assumed_shape=shape)
    calls, polished, near_ties = [], [], []

    def counting(*args):
        calls.append(args)
        return fit_terms(*args)

    def polish(f, simplex, exact, **options):
        polished.append(nelder_mead(f, simplex, exact=_counting(exact, near_ties), **options))
        return polished[-1]

    monkeypatch.setattr("tomoments.parametric.fit_terms", counting)
    monkeypatch.setattr("tomoments.parametric.minimize", polish)
    result = estimate_parametric(R, config, reference_array)
    (search,) = polished
    assert len(calls) == len(near_ties) + 1 + (abs(search.x[1]) > 0.0) < search.nfev / 4
    monkeypatch.undo()
    monkeypatch.setattr("tomoments.parametric._FAST_CONDITION_LIMIT", 0.0)
    assert result == estimate_parametric(R, config, reference_array)


def _exact_only_cases(name):
    """``(covariance, z0_max)`` pairs on one array of :data:`POINT_ARRAYS`: a
    uniform source's exact covariance and its samples at N = 100, 1000 and
    10000, and noiseless exact covariances of the bias scan's spreads, whose
    weightings lie far above the condition limit."""
    array, z_max = POINT_ARRAYS[name]
    truth = true_covariance(SourceProfile("uniform", 0.1 * z_max, 0.05 * z_max, 100.0), array, 10.0)
    yield truth
    for N in (100, 1000, 10000):
        for seed in range(2):
            yield sample_covariance(sample_snapshots(truth, N, seed=seed))
    for sigma_z in (0.0, 0.02, 0.05, 0.1, 0.2):
        yield true_covariance(SourceProfile("uniform", 0.1 * z_max, sigma_z * z_max, 100.0), array, 0.0)


def _polished(R_bar, config, array):
    """The estimate and its polish's ``NelderMeadResult``, its vertex as bytes."""
    results = []

    def polish(*args, **kwargs):
        results.append(nelder_mead(*args, **kwargs))
        return results[-1]

    with mock.patch("tomoments.parametric.minimize", polish):
        estimate = estimate_parametric(R_bar, config, array)
    (result,) = results
    fields = dataclasses.astuple(estimate)
    return _bits(*fields[:-1]), estimate.diagnostics, np.array(result.x).tobytes(), result[1:]


@pytest.mark.parametrize(
    "shape, name",
    [
        pytest.param(shape, name, id=shape if name == "reference" else f"{shape}-{name}")
        for shape in ("uniform", "gaussian")
        for name in ("reference", *IRREGULAR_STACKS)
    ],
)
def test_estimate_equals_the_exact_only_polish(shape, name):
    # the polish on fast points with near-ties on the product form returns
    # the polish on the product form alone: every number's bits, the
    # diagnostics, the polished vertex and nfev, nit and success
    array, z_max = POINT_ARRAYS[name]
    config = ParametricEstimatorConfig(assumed_shape=shape, z0_max=None if name == "reference" else z_max)
    screened = 0
    for index, R_bar in enumerate(_exact_only_cases(name)):
        covariance = PreparedCovariance(R_bar, array, "inverse_sample")
        screened += covariance.condition > _FAST_CONDITION_LIMIT
        fast = _polished(covariance, config, array)
        with mock.patch("tomoments.parametric._FAST_CONDITION_LIMIT", 0.0):
            assert _polished(covariance, config, array) == fast, index
    assert 0 < screened < index


def _counting(f, calls):
    def counted(x):
        calls.append(x)
        return f(x)

    return counted


@pytest.mark.parametrize(
    "shape, name",
    [
        pytest.param(shape, name, id=shape if name == "reference" else f"{shape}-{name}")
        for shape in ("uniform", "gaussian")
        for name in ("reference", *IRREGULAR_STACKS)
    ],
)
def test_gram_points_are_within_a_tenth_of_the_tie_band(shape, name):
    # the premise of the polish's near-tie rule: on weightings up to the
    # screen's condition limit, a fast point's objective is within a tenth
    # of the band of the product form's, at zero, negative-zero and random
    # spreads up to 0.3 z_amb, and spreads within 1e-9..1e-1 of the one at
    # which a uniform shape's characteristic function vanishes at every
    # harmonic frequency (on the uniform stack the shape is the identity
    # there, and the 2x2 systems near-singular).  The covariances are
    # sampled at N = M..3M, each also stretched to just below the limit, and
    # the exact covariance of a source of nearly that spread, whose systems
    # there take the interior solution.  The points the fast form sends to
    # the product form are left out: on the uniform stack, the last
    # covariance's gap reaches 8e-11 at a relative determinant of 4e-6
    array, z_max = POINT_ARRAYS[name]
    truth = true_covariance(SourceProfile("uniform", 0.3 * z_max, 0.05 * z_max, 100.0), array, 10.0)
    identity_spread = z_max / np.sqrt(12.0)
    near_identity = SourceProfile("uniform", 0.3 * z_max, (1.0 - 1e-3) * identity_spread, 100.0)
    rng = np.random.default_rng(7)
    offsets = np.geomspace(1e-9, 1e-1, 20)
    spreads = identity_spread * np.concatenate([1.0 + offsets, 1.0 - offsets])
    gaps, conditions, sent = [], [], []
    covariances = [true_covariance(near_identity, array, 10.0)]
    for N in range(array.M, 3 * array.M):
        R_bar = sample_covariance(sample_snapshots(truth, N, seed=N))
        covariances += [R_bar, with_condition(R_bar, 0.999 * _FAST_CONDITION_LIMIT)]
    for R in covariances:
        covariance = PreparedCovariance(R, array, "inverse_sample")
        if covariance.condition > _FAST_CONDITION_LIMIT:
            continue
        conditions.append(covariance.condition)
        exact = _point_evaluator(shape, array, covariance.W, covariance.WRW)
        fast = _gram_point_evaluator(shape, covariance, _counting(exact, sent))
        for sigma in [0.0, -0.0, *rng.uniform(-0.3, 0.3, 60) * z_max, *spreads]:
            point = (rng.uniform(-0.2, 1.2) * z_max, sigma)
            before = len(sent)
            q_fast, q = fast(point)[2], exact(point)[2]
            if len(sent) == before:
                gaps.append(abs(q_fast - q) / abs(q))
    assert len(gaps) > 1000 and max(conditions) > 0.99 * _FAST_CONDITION_LIMIT
    assert max(gaps) <= _TIE_BAND / 10
    if name == "reference" and shape == "uniform":
        assert sent

@pytest.mark.parametrize("shape", ["uniform", "gaussian"])
def test_grid_argmax_matches_product_form(reference_covariance, reference_array, shape):
    # the parametric grid from the Gram form picks the same node as the
    # product form fit_terms on sampled reference covariances; at each height
    # one fit_terms call takes all 64 shape matrices and the identity, whose
    # terms are those of every (shape, identity) pair
    sigma_values = np.linspace(0.0, 30.0, 64)
    z_grid = np.arange(96) * (100.0 / 96)
    shapes = [shape_matrix(SourceProfile(shape, 0.0, sigma, 1.0), reference_array) for sigma in sigma_values]
    stack = np.stack(shapes + [np.eye(7)])
    steering = [steering_vector(reference_array, z) for z in z_grid]
    for N in (100, 1000, 10000):
        for seed in range(4):
            R_bar = sample_covariance(sample_snapshots(reference_covariance, N, seed=seed))
            W = weighting(R_bar, "inverse_sample")
            WRW = W @ R_bar.matrix @ W
            data = np.stack([WRW, W @ W])
            terms = harmonic_terms(reference_array, W, data)
            phi = shape_characteristic(shape, sigma_values[:, None], terms.frequencies)
            noise_y, noise_Y = np.trace(data, axis1=-2, axis2=-1).real
            phase = np.exp(1j * np.multiply.outer(z_grid, terms.frequencies))
            y, Y11 = shape_terms_grid(phi, phase, terms)
            gram = _concentrate_terms(y[..., 0], noise_y, Y11, y[..., 1], noise_Y)[2]
            points = np.empty_like(gram)
            for z, a in enumerate(steering):
                y_point, Y_point = fit_terms(stack, a, W, WRW)
                points[z] = _concentrate_terms(
                    y_point[:-1], y_point[-1], np.diag(Y_point)[:-1], Y_point[:-1, -1], Y_point[-1, -1]
                )[2]
            assert np.argmax(gram) == np.argmax(points)
            np.testing.assert_allclose(gram, points, rtol=1e-10, atol=1e-12 * np.abs(points).max())


def test_scale_equivariance(reference_covariance, reference_array):
    base = estimate_parametric(reference_covariance, TIGHT, reference_array)
    scaled_R = CovarianceModel(matrix=2.5 * reference_covariance.matrix)
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


@pytest.mark.parametrize("sigma_min", [30.0, 29.999999999999996, 40.0])
def test_sigma_grid_min_at_or_above_the_default_maximum_is_refused(reference_covariance, reference_array, sigma_min):
    # the unset maximum resolves to 0.3 * z_amb = 30 m: a minimum at it gave a
    # grid of copies of one spread and the polish a zero spread step, one just
    # below it a grid of two values, one above it a decreasing grid
    config = ParametricEstimatorConfig(sigma_grid=SigmaGrid(min=sigma_min))
    message = rf"sigma_grid\.min must leave 64 spreads below the maximum 30\.0, got {sigma_min!r}"
    with pytest.raises(ValueError, match=message):
        estimate_parametric(reference_covariance, config, reference_array)
    spec = default_spec("rmse_vs_N").to_json()
    spec["estimators"].append({"label": "parametric-narrow", **config.to_json()})
    with pytest.raises(ValueError, match=message):
        ExperimentSpec.from_json(spec)


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
    R = CovarianceModel(matrix=random_psd_covariance(rng, 3, scale=5.0))
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
    R_bar = CovarianceModel(matrix=random_psd_covariance(rng, 5, scale=30.0))
    config = ParametricEstimatorConfig(assumed_shape=shape)
    result = estimate_parametric(R_bar, config, array)
    assert result.P_hat >= 0.0
    assert result.sigma_eps2_hat >= 0.0
    assert result.sigma_z_hat >= 0.0
    assert 0.0 <= result.z0_hat < 60.0
    assert result.cost >= 0.0


def test_plan_cache_is_transparent(reference_covariance, reference_array):
    # every estimate has the same bits from a cold and from a warm cache, and
    # an equal array hits the entry of the first
    for shape in ("uniform", "gaussian"):
        config = ParametricEstimatorConfig(assumed_shape=shape)
        for seed in range(2):
            R_bar = sample_covariance(sample_snapshots(reference_covariance, 1000, seed=seed))
            _parametric_plan.cache_clear()
            cold = estimate_parametric(R_bar, config, reference_array)
            warm = estimate_parametric(R_bar, config, make_uniform_array(7, 100.0))
            assert _parametric_plan.cache_info()[:2] == (1, 1)  # hits, misses
            assert all(getattr(cold, f.name) == getattr(warm, f.name) for f in dataclasses.fields(cold))


def test_cached_plan_arrays_are_read_only(reference_array):
    plan = _parametric_plan(ParametricEstimatorConfig(), reference_array)
    for table in (plan.sigma_values, plan.phi, plan.search.z_grid, plan.search.phase):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 0.0
