"""The prepared covariance and the polish's point tables give the bits of the plain path.

Every estimator fitted on a :class:`~tomoments.fitting.PreparedCovariance`
must return what it returns on the covariance itself, field by field and
bit by bit, and the polish's point tables must give the bits of
``fit_terms(stack, steering_vector(array, z), W, WRW)``, which stays public
as their oracle.  A covariance that fails preparation fails every fit that
uses it, as each fit failed on its own before.
"""

import csv
import dataclasses
from unittest import mock

import numpy as np
import pytest

from tomoments import (
    ArrayConfig,
    CovarianceModel,
    DegenerateCovarianceError,
    EstimatorSpec,
    ExperimentError,
    MomentEstimatorConfig,
    ParametricEstimatorConfig,
    PreparedCovariance,
    SourceProfile,
    baseline_differences,
    default_estimators,
    default_spec,
    estimate,
    estimate_parametric,
    make_uniform_array,
    run_asymptotic_bias_vs_sigma,
    run_rmse_vs_N,
    sample_covariance,
    sample_snapshots,
    shape_characteristic,
    steering_vector,
    true_covariance,
)
from tomoments.experiments import _KIND_STREAM, PARAM_NAMES, _run_trial
from tomoments.fitting import (
    _FAST_CONDITION_LIMIT,
    _weighting_flagged,
    fit_terms,
    fit_terms_grid,
    harmonic_terms,
    shape_terms_grid,
)
from tomoments.moments import _basis_stack, _moment_plan
from tomoments.parametric import _concentrate_pair, _point_evaluator
from tomoments.sampling import derive_seed

from .conftest import IRREGULAR_STACKS, REFERENCE_NOISE
from .oracles import random_psd_covariance, weighting

REFERENCE = make_uniform_array(7, 100.0)
# integer lags 1, 2, 3, 4, 6 and 7 of a 100 m ambiguity, unevenly spaced
SPARSE = ArrayConfig(2.0 * np.pi / 100.0 * np.array([0, 1, 3, 7]), ambiguity=100.0)
M6_KZ, M6_Z0_MAX = IRREGULAR_STACKS["M6"]
M6 = ArrayConfig(kz=np.array(M6_KZ))

MOMENT_CONFIGS = [
    MomentEstimatorConfig(D=D, symmetric=symmetric) for D in range(2, 9) for symmetric in (True, False)
]


def _configs(z0_max=None):
    """The four default estimators and every moment config up to D = 8, under both weightings."""
    base = [entry.config for entry in default_estimators("uniform")] + MOMENT_CONFIGS
    return [
        dataclasses.replace(config, weighting=choice, z0_max=z0_max)
        for choice in ("inverse_sample", "identity")
        for config in base
    ]


def _fit(R, config, array):
    method = estimate if isinstance(config, MomentEstimatorConfig) else estimate_parametric
    return method(R, config, array)


def _bits(fit) -> dict:
    """Every field of an estimate, arrays and floats as bytes, diagnostics as their dataclass."""
    return {
        field.name: (value if dataclasses.is_dataclass(value) else (type(value), np.asarray(value).tobytes()))
        for field in dataclasses.fields(fit)
        for value in [getattr(fit, field.name)]
    }


def _outcome(R, config, array):
    """The fit's bits, or the type and message of the error it raised."""
    try:
        return _bits(_fit(R, config, array))
    except (ValueError, np.linalg.LinAlgError) as error:
        return type(error), str(error)


def _sample(profile, array, N, seed, noise=REFERENCE_NOISE):
    return sample_covariance(sample_snapshots(true_covariance(profile, array, noise), N, seed=seed))


UNIFORM = SourceProfile("uniform", 10.0, 5.0, 100.0)
COVARIANCES = {
    **{
        f"reference-N{N}": (lambda N=N: _sample(UNIFORM, REFERENCE, N, seed=N), REFERENCE, None)
        for N in (100, 1000, 10000)
    },
    "sparse-ambiguity": (lambda: _sample(UNIFORM, SPARSE, 1000, seed=3), SPARSE, None),
    "M6-z0_max": (
        lambda: _sample(SourceProfile("gaussian", 47.0, 4.0, 100.0), M6, 1000, seed=4),
        M6,
        M6_Z0_MAX,
    ),
    # three snapshots of seven channels: singular, so the inverse weighting is loaded
    "loaded": (lambda: _sample(UNIFORM, REFERENCE, 3, seed=5), REFERENCE, None),
}


@pytest.mark.parametrize("case", list(COVARIANCES))
def test_prepared_fits_match_plain_fits(case):
    # one prepared covariance per weighting serves every config in turn, so the
    # coefficient tables filled by the first moment and parametric fits are reused
    build, array, z0_max = COVARIANCES[case]
    R_bar = build()
    prepared = {choice: PreparedCovariance(R_bar, array, choice) for choice in ("inverse_sample", "identity")}
    assert prepared["inverse_sample"].loaded is (case == "loaded")
    for config in _configs(z0_max):
        expected = _outcome(R_bar, config, array)
        assert isinstance(expected, dict), (config, expected)
        assert _outcome(prepared[config.weighting], config, array) == expected, config


def test_prepared_covariance_refuses_another_weighting_or_array(reference_covariance):
    prepared = PreparedCovariance(reference_covariance, REFERENCE, "identity")
    with pytest.raises(ValueError, match="prepared for weighting 'identity'"):
        estimate(prepared, MomentEstimatorConfig(), REFERENCE)
    with pytest.raises(ValueError, match="another array"):
        estimate_parametric(prepared, ParametricEstimatorConfig(weighting="identity"), make_uniform_array(7, 90.0))
    # an equal array built apart is the same array
    config = MomentEstimatorConfig(weighting="identity")
    assert _bits(estimate(prepared, config, make_uniform_array(7, 100.0))) == _bits(
        estimate(reference_covariance, config, REFERENCE)
    )
    # the tables every fit on it shares; R is the covariance's own read-only matrix
    assert prepared.R is reference_covariance.matrix
    tables = [prepared.R, prepared.W, prepared.WRW, prepared.traces, prepared.terms.c, prepared.terms.Q]
    assert not any(table.flags.writeable for table in tables)


@pytest.mark.parametrize("weighting_choice", ["inverse_sample", "identity"])
@pytest.mark.parametrize("case", list(COVARIANCES))
def test_prepared_column_zero_gives_the_moment_grid(case, weighting_choice):
    # the moment fits read column 0 of the one table, the coefficients of W R W,
    # and get the grid terms of harmonic_terms on W R W alone, bit for bit
    build, array, z0_max = COVARIANCES[case]
    prepared = PreparedCovariance(build(), array, weighting_choice)
    terms = prepared.terms
    column = terms._replace(c=terms.c[:, 0])
    alone = harmonic_terms(array, prepared.W, prepared.WRW)
    assert column.c.tobytes() == alone.c.tobytes()
    assert column.Q.tobytes() == alone.Q.tobytes()
    for D, symmetric in [(2, True), (4, False), (6, True)]:
        config = MomentEstimatorConfig(D=D, symmetric=symmetric, weighting=weighting_choice, z0_max=z0_max)
        weighted = _moment_plan(config, array).weighted
        got, expected = fit_terms_grid(weighted, column), fit_terms_grid(weighted, alone)
        assert [v.tobytes() for v in got] == [v.tobytes() for v in expected], config


MIXED = default_estimators("uniform") + (
    EstimatorSpec("moments-id", MomentEstimatorConfig(D=6, symmetric=False, weighting="identity")),
    EstimatorSpec(
        "parametric-id", ParametricEstimatorConfig(assumed_shape="gaussian", weighting="identity")
    ),
)


def test_run_trial_prepares_once_per_weighting():
    # a trial of a spec that mixes both weightings prepares its sample covariance
    # twice, and every estimator returns the bits of its plain fit
    spec = default_spec("rmse_vs_N", N_list=(100,), trials=3, estimators=MIXED)
    R_true = true_covariance(spec.profile, spec.array, spec.sigma_eps2)
    for trial in range(3):
        with mock.patch("tomoments.experiments.PreparedCovariance", wraps=PreparedCovariance) as prepare:
            rows = _run_trial(spec, 0, 100, R_true, trial)
        assert sorted(call.args[2] for call in prepare.call_args_list) == ["identity", "inverse_sample"]
        seed = derive_seed(spec.master_seed, _KIND_STREAM["rmse_vs_N"], 0, trial)
        R_bar = sample_covariance(sample_snapshots(R_true, 100, seed))
        for entry, row in zip(spec.estimators, rows):
            fit = _fit(R_bar, entry.config, spec.array)
            assert np.array(row).tobytes() == np.array(
                [fit.z0_hat, fit.sigma_z_hat, fit.P_hat, fit.sigma_eps2_hat]
            ).tobytes()


def _unchecked(matrix) -> CovarianceModel:
    """A covariance that skips the model's own checks, as a faulty sampler could return."""
    model = object.__new__(CovarianceModel)
    object.__setattr__(model, "matrix", np.asarray(matrix, dtype=complex))
    return model


NON_FINITE = np.eye(7, dtype=complex)
NON_FINITE[2, 3] = np.nan
FAILING = {
    "non-finite": _unchecked(NON_FINITE),
    "zero": CovarianceModel(np.zeros((7, 7))),
    # nonpositive trace: the identity weighting fits it, the inverse one is refused
    "negative": _unchecked(-np.eye(7)),
}


def _with_nan(M: int) -> CovarianceModel:
    """An otherwise zero M x M covariance with one non-finite entry."""
    matrix = np.zeros((M, M), dtype=complex)
    matrix[1, 0] = np.nan
    return _unchecked(matrix)


# the mismatched covariance is non-finite too, so the dimensions are checked
# first; the non-finite and the zero ones are refused before the weighting,
# which would fail on the first and refuse the second's trace
REFUSALS = {
    "dimensions": (_with_nan(5), ValueError, "dimensions disagree"),
    "non-finite": (_with_nan(7), ValueError, "non-finite entries"),
    "zero": (CovarianceModel(np.zeros((7, 7))), DegenerateCovarianceError, "numerically zero"),
}


@pytest.mark.parametrize("weighting_choice", ["inverse_sample", "identity"])
@pytest.mark.parametrize("name", list(REFUSALS))
def test_prepared_covariance_refusals_and_their_order(name, weighting_choice):
    R_bar, error, message = REFUSALS[name]
    with pytest.raises(ValueError, match=message) as raised:
        PreparedCovariance(R_bar, REFERENCE, weighting_choice)
    assert type(raised.value) is error


@pytest.mark.parametrize("condition, loaded", [(1e11, False), (1e12, False), (1e13, True)])
def test_loading_screen_reads_the_weighting_eigh(condition, loaded):
    # diagonal covariances, whose eigenvalues eigh returns exactly: loading
    # starts above a condition number of 1e12.  The screen reads the one eigh
    # the weighting needs; a loaded covariance takes a second one
    R_bar = CovarianceModel(np.diag([1.0] * 6 + [condition]))
    with mock.patch("numpy.linalg.eigh", wraps=np.linalg.eigh) as eigh, mock.patch(
        "numpy.linalg.eigvalsh", side_effect=AssertionError("eigvalsh called")
    ):
        W, flagged, measured = _weighting_flagged(R_bar, "inverse_sample")
    assert flagged is loaded
    assert eigh.call_count == 1 + loaded
    prepared = PreparedCovariance(R_bar, REFERENCE, "inverse_sample")
    assert prepared.loaded is loaded and prepared.condition == measured
    if not loaded:
        np.testing.assert_allclose(W, np.diag(1.0 / np.diag(R_bar.matrix)), rtol=1e-15, atol=0.0)
        assert measured == condition
    else:
        # the condition of the loaded matrix: 1e-8 of the mean eigenvalue on the diagonal
        load = 1e-8 * (6.0 + condition) / 7.0
        assert measured == pytest.approx((condition + load) / (1.0 + load), rel=1e-12)


def test_condition_is_the_weightings():
    # the identity's is 1; an inverse-sample weighting's is its 2-norm condition number
    truth = true_covariance(SourceProfile("uniform", 10.0, 5.0, 100.0), REFERENCE, REFERENCE_NOISE)
    R_bar = sample_covariance(sample_snapshots(truth, 100, seed=3))
    assert PreparedCovariance(R_bar, REFERENCE, "identity").condition == 1.0
    prepared = PreparedCovariance(R_bar, REFERENCE, "inverse_sample")
    assert prepared.condition == pytest.approx(np.linalg.cond(prepared.W), rel=1e-10)


def _failed(R, entry, array) -> bool:
    return not isinstance(_outcome(R, entry.config, array), dict)


def _failure_cells(path) -> dict:
    with open(path, newline="") as handle:
        rows = csv.DictReader(handle)
        return {(row["estimator"], row["sweep_value"], row["parameter"]): row["failures"] for row in rows}


@pytest.mark.parametrize("name", list(FAILING))
def test_failed_preparation_fails_each_fit_in_a_trial(name, tmp_path, monkeypatch):
    # trial 1 of N = 50 draws a covariance that fails preparation under one or
    # both weightings; each estimator fails that trial exactly when its plain
    # fit raises, and the failures cells count it once
    bad = FAILING[name]
    expected = {entry.label: _failed(bad, entry, REFERENCE) for entry in MIXED}
    assert expected["moments-full"] and expected["parametric-uniform"]
    assert expected["moments-id"] is expected["parametric-id"] is (name != "negative")
    calls = []

    def sampler(stack):
        calls.append(None)
        return bad if len(calls) == 2 else sample_covariance(stack)

    monkeypatch.setattr("tomoments.experiments.sample_covariance", sampler)
    spec = default_spec(
        "rmse_vs_N",
        N_list=(50, 200),
        trials=3,
        estimators=MIXED,
        output_dir=str(tmp_path),
        timestamp_header=False,
    )
    with pytest.raises(ExperimentError):
        run_rmse_vs_N(spec)
    cells = _failure_cells(tmp_path / "rmse_vs_N.csv")
    assert len(cells) == len(MIXED) * 2 * len(PARAM_NAMES)
    for (label, N, _), failures in cells.items():
        assert failures == ("1" if N == "50" and expected[label] else "0"), (label, N)


@pytest.mark.parametrize("name", list(FAILING))
def test_failed_preparation_fails_each_fit_in_the_bias_scan(name, tmp_path, monkeypatch):
    bad = FAILING[name]
    expected = {entry.label: _failed(bad, entry, REFERENCE) for entry in MIXED}

    def exact(profile, array, sigma_eps2):
        return bad if profile.sigma_z == 5.0 else true_covariance(profile, array, sigma_eps2)

    monkeypatch.setattr("tomoments.experiments.true_covariance", exact)
    spec = default_spec(
        "asymptotic_bias_vs_sigma",
        sigma_list=(2.0, 5.0),
        estimators=MIXED,
        output_dir=str(tmp_path),
        timestamp_header=False,
    )
    with pytest.raises(ExperimentError):
        run_asymptotic_bias_vs_sigma(spec)
    cells = _failure_cells(tmp_path / "asymptotic_bias_vs_sigma.csv")
    assert len(cells) == len(MIXED) * 2 * len(PARAM_NAMES)
    for (label, sigma, _), failures in cells.items():
        assert failures == ("1" if sigma == "5.0" and expected[label] else "0"), (label, sigma)


def _weights(rng, M):
    R_bar = random_psd_covariance(rng, M, scale=50.0)
    W = weighting(CovarianceModel(R_bar), "inverse_sample")
    return W, W @ R_bar @ W


def test_fit_terms_average_the_two_triangles(rng):
    # the refinements' product form, pinned to the bit: Y is the mean of the
    # raw products and their transpose.  Copying one triangle instead is as symmetric and as
    # close to the trace oracle, but moves the refined fits and the CSVs.
    W, WRW = _weights(rng, 7)
    stack = _basis_stack(MomentEstimatorConfig(D=6, symmetric=False), REFERENCE)
    for z in rng.uniform(0.0, 100.0, 20):
        a = steering_vector(REFERENCE, z)
        C = (a.conj()[:, None] * W * a[None, :]) @ stack
        raw = np.einsum("imn,knm->ik", C, C).real
        assert fit_terms(stack, a, W, WRW)[1].tobytes() == (0.5 * (raw + raw.T)).tobytes()


POINT_ARRAYS = {
    "reference": (REFERENCE, 100.0),
    "sparse": (SPARSE, 100.0),
    **{name: (ArrayConfig(kz=np.array(kz)), z_max) for name, (kz, z_max) in IRREGULAR_STACKS.items()},
}
SIGMAS = [0.0, -0.0, -7.5, 7.5, 1e-300, 0.3]


@pytest.mark.parametrize("shape", ["uniform", "gaussian"])
@pytest.mark.parametrize("name", list(POINT_ARRAYS))
def test_polish_points_match_fit_terms_points(rng, shape, name):
    # spreads of either sign up to 0.3 of the interval, a zero of either sign
    # and a subnormal-scale one, at heights below zero and past the interval,
    # in an order that rewrites the shape rows between points
    array, z_max = POINT_ARRAYS[name]
    W, WRW = _weights(rng, array.M)
    evaluate = _point_evaluator(shape, array, W, WRW)
    for sigma in np.concatenate([SIGMAS, rng.uniform(-0.3, 0.3, 100) * z_max]):
        z = rng.uniform(-0.2, 1.2) * z_max
        column = shape_characteristic(shape, abs(float(sigma)), baseline_differences(array))
        stack = np.stack([column.astype(complex), np.eye(array.M, dtype=complex)])
        y, Y = fit_terms(stack, steering_vector(array, z), W, WRW)
        (Y11, Y12), (_, Y22) = Y.tolist()
        expected = _concentrate_pair(*y.tolist(), Y11, Y12, Y22)
        got = evaluate((z, sigma))
        assert np.array(got[:3]).tobytes() == np.array(expected[:3]).tobytes(), (z, sigma)
        assert got[3] is expected[3]


@pytest.mark.parametrize("name", list(POINT_ARRAYS))
def test_point_terms_match_fit_terms(rng, name):
    # the polish's point terms: real and complex stacks of K = 2..13 Hermitian
    # matrices, one row rewritten in place between points, and the steering
    # vector from 1j * kz give fit_terms' bits and an exactly symmetric Y
    array, z_max = POINT_ARRAYS[name]
    W, WRW = _weights(rng, array.M)
    jkz = 1j * array.kz
    for K in range(2, 14):
        stack = np.array([random_psd_covariance(rng, array.M, scale=1.0) for _ in range(K)])
        if K % 2:
            stack = stack.real.astype(complex)
        for z in np.concatenate([[0.0, -0.0], rng.uniform(-0.5, 1.5, 5) * z_max]):
            stack[0] = random_psd_covariance(rng, array.M, scale=1.0)
            expected = fit_terms(stack, steering_vector(array, z), W, WRW)
            got = fit_terms(stack, np.exp(jkz * z), W, WRW)
            assert [np.asarray(v).tobytes() for v in got] == [v.tobytes() for v in expected], (K, z)
            assert np.array_equal(got[1], got[1].T)


@pytest.mark.parametrize("shape", ["uniform", "gaussian"])
@pytest.mark.parametrize("name", list(POINT_ARRAYS))
def test_shape_point_form_gives_the_grid_terms_at_one_point(rng, shape, name):
    # with x the float view of v = (1, e_f phi_f for f > 0), x^T G x and D x
    # are shape_terms_grid's terms at that (height, spread) point, to the
    # rounding of sums of their magnitudes; G is exactly symmetric
    array, z_max = POINT_ARRAYS[name]
    prepared = PreparedCovariance(CovarianceModel(random_psd_covariance(rng, array.M, scale=50.0)), array,
                                  "inverse_sample")
    frequencies = prepared.terms.frequencies
    form = prepared.shape_point_form
    n = 2 * (frequencies.size // 2 + 1)
    assert form.shape == (n + 2, n)
    G, D = form[:n], form[n:]
    assert np.array_equal(G, G.T)
    for sigma in np.concatenate([[0.0], rng.uniform(0.0, 0.3, 40) * z_max]):
        z = rng.uniform(-0.2, 1.2) * z_max
        phi = shape_characteristic(shape, sigma, frequencies)
        phase = np.exp(1j * z * frequencies)
        (y,), (Y,) = shape_terms_grid(phi[None], phase[None], prepared.terms)
        x = (phase * phi)[frequencies.size // 2 :].view(float)
        assert x[:2].tolist() == [1.0, 0.0]
        assert abs(x @ G @ x - Y[0]) <= 1e-13 * np.abs(G).sum()
        assert np.all(np.abs(D @ x - y[0]) <= 1e-13 * np.abs(D).sum(axis=1))


def test_shape_point_form_is_built_once_by_the_first_fast_polish(reference_covariance):
    # a moment fit builds no point form, the first parametric fit whose polish
    # takes fast points builds it, the next reuses it, read-only; a fit above
    # the condition limit builds none
    prepared = PreparedCovariance(reference_covariance, REFERENCE, "inverse_sample")
    assert prepared.condition <= _FAST_CONDITION_LIMIT
    estimate(prepared, MomentEstimatorConfig(), REFERENCE)
    assert "shape_point_form" not in vars(prepared)
    estimate_parametric(prepared, ParametricEstimatorConfig(), REFERENCE)
    form = vars(prepared)["shape_point_form"]
    estimate_parametric(prepared, ParametricEstimatorConfig(assumed_shape="gaussian"), REFERENCE)
    assert prepared.shape_point_form is form and not form.flags.writeable
    noiseless = true_covariance(SourceProfile("uniform", 10.0, 2.0, 100.0), REFERENCE, 0.0)
    loaded = PreparedCovariance(noiseless, REFERENCE, "inverse_sample")
    assert loaded.condition > _FAST_CONDITION_LIMIT
    estimate_parametric(loaded, ParametricEstimatorConfig(), REFERENCE)
    assert "shape_point_form" not in vars(loaded)


def test_point_terms_refuse_a_non_finite_height(rng):
    W, WRW = _weights(rng, 7)
    evaluate = _point_evaluator("uniform", REFERENCE, W, WRW)
    for z in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="z must be finite") as raised:
            steering_vector(REFERENCE, z)
        with pytest.raises(ValueError, match=str(raised.value)):
            evaluate((z, 5.0))
