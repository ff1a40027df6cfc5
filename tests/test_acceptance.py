"""End-to-end acceptance checks with stated tolerances and runtime budgets.

Each test prints one ``[acceptance] criterion N (name): PASS/FAIL`` line and
then asserts every condition, so a red criterion still reports its verdict
before pytest shows the details.
"""

import dataclasses
import math
import time

import numpy as np

from tomoments import (
    CovarianceModel,
    MomentEstimatorConfig,
    ParametricEstimatorConfig,
    SourceProfile,
    covariance_derivatives,
    default_spec,
    estimate,
    estimate_parametric,
    make_uniform_array,
    run_rmse_vs_N,
    sample_covariance,
    sample_snapshots,
    steering_vector,
    true_covariance,
)
from tomoments.fitting import cost_constant, fit_terms
from tomoments.moments import _basis_stack

from .oracles import fit_terms_trace_oracle, random_psd_covariance, weighting
from .test_moments import _direct_cost

ARRAY = make_uniform_array(7, 100.0)
Z_AMB = 100.0
NOISE = 10.0
UNIFORM = SourceProfile("uniform", 10.0, 5.0, 100.0)
TIGHT = 1e-9 * Z_AMB
# symmetric fit through moment order 6: the lowest even truncation whose
# small-spread accuracy and bias onset land in the documented regime
ORDER6 = MomentEstimatorConfig(D=6, symmetric=True)


def _finish(index, name, elapsed, budget, checks):
    checks = list(checks)
    checks.append(
        (elapsed < budget, f"runtime {elapsed:.1f} s exceeds the {budget:.0f} s budget")
    )
    verdict = "PASS" if all(passed for passed, _ in checks) else "FAIL"
    print(f"\n[acceptance] criterion {index} ({name}): {verdict} [{elapsed:.1f} s]")
    failed = [message for passed, message in checks if not passed]
    assert not failed, f"criterion {index} ({name}): " + "; ".join(failed)


def test_criterion_1_exact_recovery():
    R = true_covariance(SourceProfile("point", 10.0, 0.0, 100.0), ARRAY, NOISE)
    start = time.perf_counter()
    fits = {
        "moments": estimate(R, MomentEstimatorConfig(refine_tol=TIGHT), ARRAY),
        "assumed-uniform": estimate_parametric(
            R, ParametricEstimatorConfig(refine_tol=TIGHT), ARRAY
        ),
        "assumed-gaussian": estimate_parametric(
            R, ParametricEstimatorConfig(assumed_shape="gaussian", refine_tol=TIGHT), ARRAY
        ),
    }
    elapsed = time.perf_counter() - start
    checks = []
    for label, fit in fits.items():
        for value, truth, quantity in (
            (fit.z0_hat, 10.0, "z0"),
            (fit.P_hat, 100.0, "P"),
            (fit.sigma_eps2_hat, NOISE, "sigma_eps2"),
        ):
            error = abs(value - truth) / truth
            checks.append(
                (error <= 1e-6, f"{label} {quantity} relative error {error:.2e} > 1e-6")
            )
        checks.append(
            (
                fit.sigma_z_hat <= 1e-6,
                f"{label} sigma_z {fit.sigma_z_hat:.2e} m > 1e-6 m",
            )
        )
    _finish(1, "exact recovery", elapsed, 1.0, checks)


def test_criterion_2_negligible_bias_regime():
    start = time.perf_counter()
    fit = estimate(true_covariance(UNIFORM, ARRAY, NOISE), ORDER6, ARRAY)
    P_error = abs(fit.P_hat - 100.0) / 100.0
    sigma_error = abs(fit.sigma_z_hat - 5.0) / 5.0

    sigma_values = np.arange(6.0, 14.0)
    bias_pct = []
    for sigma in sigma_values:
        profile = dataclasses.replace(UNIFORM, sigma_z=float(sigma))
        sweep_fit = estimate(true_covariance(profile, ARRAY, NOISE), ORDER6, ARRAY)
        bias_pct.append(abs(sweep_fit.P_hat - 100.0))
    bias_pct = np.array(bias_pct)
    above = np.nonzero(bias_pct > 2.0)[0]
    crossing = math.inf
    if above.size and above[0] > 0:
        k = above[0]
        crossing = sigma_values[k - 1] + (2.0 - bias_pct[k - 1]) / (
            bias_pct[k] - bias_pct[k - 1]
        )
    elapsed = time.perf_counter() - start

    checks = [
        (P_error <= 0.01, f"P relative bias {P_error:.2%} > 1% at sigma_z = 5 m"),
        (sigma_error <= 0.03, f"sigma_z relative bias {sigma_error:.2%} > 3% at sigma_z = 5 m"),
        (
            8.0 < crossing <= 12.0,
            f"2% power-bias crossing at sigma_z/z_amb = {crossing:.2f}% outside (8%, 12%]",
        ),
    ]
    _finish(2, "negligible-bias regime", elapsed, 10.0, checks)


def test_criterion_3_misspecification_bias():
    R = true_covariance(UNIFORM, ARRAY, NOISE)
    start = time.perf_counter()
    moment_fit = estimate(R, ORDER6, ARRAY)
    wrong = estimate_parametric(
        R, ParametricEstimatorConfig(assumed_shape="gaussian", refine_tol=TIGHT), ARRAY
    )
    correct = estimate_parametric(R, ParametricEstimatorConfig(refine_tol=TIGHT), ARRAY)
    elapsed = time.perf_counter() - start

    sigma_ratio = abs(wrong.sigma_z_hat - 5.0) / abs(moment_fit.sigma_z_hat - 5.0)
    P_ratio = abs(wrong.P_hat - 100.0) / abs(moment_fit.P_hat - 100.0)
    checks = [
        (abs(wrong.sigma_z_hat - 5.0) > 0.0, "assumed-gaussian sigma_z bias is zero"),
        (abs(wrong.P_hat - 100.0) > 0.0, "assumed-gaussian P bias is zero"),
        (sigma_ratio > 3.0, f"sigma_z bias ratio {sigma_ratio:.2f} not > 3"),
        (P_ratio > 3.0, f"P bias ratio {P_ratio:.2f} not > 3"),
        (
            abs(correct.z0_hat - 10.0) <= 1e-6,
            f"correct-shape z0 bias {abs(correct.z0_hat - 10.0):.2e} > 1e-6",
        ),
        (
            abs(correct.sigma_z_hat - 5.0) <= 1e-6,
            f"correct-shape sigma_z bias {abs(correct.sigma_z_hat - 5.0):.2e} > 1e-6",
        ),
        (
            abs(correct.P_hat - 100.0) <= 1e-6,
            f"correct-shape P bias {abs(correct.P_hat - 100.0):.2e} > 1e-6",
        ),
    ]
    _finish(3, "misspecification bias", elapsed, 10.0, checks)


def test_criterion_4_consistency_and_ordering(tmp_path):
    trials = 500
    N_list = (100, 1000, 10000)
    spec = default_spec(
        "rmse_vs_N",
        N_list=N_list,
        trials=trials,
        master_seed=0,
        output_dir=str(tmp_path),
        timestamp_header=False,
    )
    start = time.perf_counter()
    result = run_rmse_vs_N(spec)
    elapsed = time.perf_counter() - start

    def rmse(label, parameter, N):
        return result.select(estimator=label, parameter=parameter, sweep_value=N)[0]["rmse"]

    checks = []
    labels = [entry.label for entry in spec.estimators]
    for label in labels:
        series = [rmse(label, "z0", N) for N in N_list]
        monotone = all(a > b for a, b in zip(series, series[1:]))
        checks.append(
            (monotone, f"{label} z0 RMSE not monotone decreasing in N: {series}")
        )

    slack = 1.0 + 3.0 / math.sqrt(trials)
    for parameter in ("z0", "sigma_z", "P"):
        for N in N_list:
            bs = rmse("parametric-uniform", parameter, N)
            for moment_label in ("moments-sym", "moments-full"):
                mom = rmse(moment_label, parameter, N)
                checks.append(
                    (
                        bs <= mom * slack,
                        f"correct-shape RMSE {bs:.4g} > {moment_label} {mom:.4g} "
                        f"(3 sigma slack) for {parameter} at N={N}",
                    )
                )

    crb_rows = result.select(estimator="parametric-uniform", parameter="z0")
    row_1e4 = [row for row in crb_rows if row["sweep_value"] == 10000][0]
    ratio = row_1e4["rmse"] / row_1e4["crb"]
    checks.append(
        (ratio <= 1.25, f"correct-shape z0 RMSE is {ratio:.3f}x the CRB at N=1e4 (> 1.25x)")
    )
    floor = 1.0 - 3.0 / math.sqrt(trials)
    for parameter in ("z0", "sigma_z", "P", "sigma_eps2"):
        for N in N_list:
            row = result.select(
                estimator="parametric-uniform", parameter=parameter, sweep_value=N
            )[0]
            checks.append(
                (
                    row["rmse"] >= row["crb"] * floor,
                    f"correct-shape {parameter} RMSE at N={N} below CRB beyond slack",
                )
            )

    log_N = np.log10(np.array(N_list, dtype=float))
    log_rmse = np.log10([rmse("parametric-uniform", "z0", N) for N in N_list])
    slope = float(np.polyfit(log_N, log_rmse, 1)[0])
    checks.append(
        (-0.6 <= slope <= -0.4, f"correct-shape z0 RMSE log-log slope {slope:.3f} outside [-0.6, -0.4]")
    )
    _finish(4, "consistency and ordering", elapsed, 600.0, checks)


def test_criterion_5_symmetry_benefit(tmp_path):
    trials = 1000
    spec = default_spec(
        "rmse_vs_N",
        N_list=(1000,),
        trials=trials,
        master_seed=0,
        estimators=default_spec("rmse_vs_N").estimators[:2],
        output_dir=str(tmp_path),
        timestamp_header=False,
    )
    start = time.perf_counter()
    result = run_rmse_vs_N(spec)
    elapsed = time.perf_counter() - start
    full = result.select(estimator="moments-full", parameter="z0")[0]["rmse"]
    sym = result.select(estimator="moments-sym", parameter="z0")[0]["rmse"]
    slack = 1.0 + 3.0 / math.sqrt(2.0 * trials)
    checks = [
        (
            sym < full * slack,
            f"symmetric z0 RMSE {sym:.5f} not below full-order {full:.5f} with 3 sigma slack",
        )
    ]
    _finish(5, "symmetry benefit", elapsed, 120.0, checks)


def test_criterion_6_numerical_identities():
    rng = np.random.default_rng(123)
    start = time.perf_counter()
    checks = []

    config = MomentEstimatorConfig(D=4, symmetric=False)
    stack = _basis_stack(config, ARRAY)
    worst_cost = 0.0
    for _ in range(20):
        R = random_psd_covariance(rng, ARRAY.M, scale=40.0)
        W = random_psd_covariance(rng, ARRAY.M)
        WRW = W @ R @ W
        z = float(rng.uniform(0.0, Z_AMB))
        alpha = rng.standard_normal(stack.shape[0]) * np.array([40.0, 4.0, 1e3, 1e3, 1e4])
        y, Y = fit_terms(stack, steering_vector(ARRAY, z), W, WRW)
        quadratic = cost_constant(R, W) - 2.0 * float(y @ alpha) + float(alpha @ Y @ alpha)
        direct = _direct_cost(R, W, ARRAY, z, stack, alpha)
        worst_cost = max(worst_cost, abs(quadratic - direct) / max(abs(direct), 1.0))
    checks.append(
        (worst_cost <= 1e-9, f"cost identity relative error {worst_cost:.2e} > 1e-9")
    )

    # the terms are exactly real in theory: an independent complex trace
    # oracle shows it to rounding, and fit_terms must return its real part
    R_exact = true_covariance(UNIFORM, ARRAY, NOISE)
    worst_imag = 0.0
    real_part_matches = True
    for W in (np.eye(ARRAY.M, dtype=complex), weighting(R_exact, "inverse_sample")):
        WRW = W @ np.asarray(R_exact.matrix) @ W
        for z in (0.0, 13.7, 61.2):
            a = steering_vector(ARRAY, z)
            y_c, Y_c = fit_terms_trace_oracle(stack, a, W, WRW)
            scale = max(np.abs(y_c.real).max(), np.abs(Y_c.real).max())
            worst_imag = max(
                worst_imag,
                np.abs(y_c.imag).max() / scale,
                np.abs(Y_c.imag).max() / scale,
            )
            y, Y = fit_terms(stack, a, W, WRW)
            real_part_matches &= np.allclose(y, y_c.real, rtol=1e-10, atol=1e-12 * scale)
            real_part_matches &= np.allclose(Y, Y_c.real, rtol=1e-10, atol=1e-12 * scale)
    checks.append(
        (worst_imag <= 1e-9, f"fit terms imaginary residue {worst_imag:.2e} > 1e-9 relative")
    )
    checks.append((real_part_matches, "fit_terms differs from the real part of the trace oracle"))

    steps = {"z0": 1e-5 * Z_AMB, "sigma_z": 1e-4, "P": 1e-2, "sigma_eps2": 1e-4}
    worst_fd = 0.0
    for shape in ("uniform", "gaussian"):
        profile = SourceProfile(shape, 10.0, 5.0, 100.0)
        analytic = covariance_derivatives(profile, ARRAY, NOISE)
        for name, h in steps.items():
            if name == "sigma_eps2":
                plus = true_covariance(profile, ARRAY, NOISE + h).matrix
                minus = true_covariance(profile, ARRAY, NOISE - h).matrix
            else:
                plus = true_covariance(
                    dataclasses.replace(profile, **{name: getattr(profile, name) + h}),
                    ARRAY,
                    NOISE,
                ).matrix
                minus = true_covariance(
                    dataclasses.replace(profile, **{name: getattr(profile, name) - h}),
                    ARRAY,
                    NOISE,
                ).matrix
            fd = (plus - minus) / (2.0 * h)
            rel = np.linalg.norm(analytic[name] - fd) / np.linalg.norm(analytic[name])
            worst_fd = max(worst_fd, rel)
    checks.append(
        (worst_fd <= 1e-6, f"derivative finite-difference error {worst_fd:.2e} > 1e-6")
    )

    identity = CovarianceModel(matrix=np.eye(7, dtype=complex))
    R_bar = sample_covariance(sample_snapshots(identity, 1_000_000, seed=2026))
    lln_error = float(np.max(np.abs(np.asarray(R_bar.matrix) - np.eye(7))))
    checks.append(
        (lln_error <= 5e-3, f"1e6-snapshot sample covariance off by {lln_error:.2e} > 5e-3")
    )

    elapsed = time.perf_counter() - start
    _finish(6, "numerical identities", elapsed, 60.0, checks)


def test_criterion_7_determinism(tmp_path):
    estimators = default_spec("rmse_vs_N").estimators
    common = dict(
        N_list=(100,),
        trials=25,
        estimators=(estimators[1], estimators[2]),
        timestamp_header=False,
    )
    start = time.perf_counter()
    contents = []
    for name, seed in (("a", 11), ("b", 11), ("c", 12)):
        spec = default_spec(
            "rmse_vs_N", master_seed=seed, output_dir=str(tmp_path / name), **common
        )
        result = run_rmse_vs_N(spec)
        with open(result.files["rmse_vs_N"], "rb") as handle:
            contents.append(handle.read())
    elapsed = time.perf_counter() - start
    checks = [
        (contents[0] == contents[1], "identical config and seed gave different CSV bytes"),
        (contents[0] != contents[2], "different master seeds gave identical CSV bytes"),
    ]
    _finish(7, "determinism", elapsed, 60.0, checks)
