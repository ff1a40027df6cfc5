"""Benchmark experiments: spectrum dumps, RMSE sweeps and asymptotic bias scans.

Every experiment is described by a single :class:`ExperimentSpec` (JSON
serializable) and writes deterministic long-format CSV files.  Trials are
seeded individually from the master seed, so results are independent of the
execution order and of the worker count.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from .crb import SingularFimError, crb_stddev, fisher_information
from .geometry import ArrayConfig, baseline_differences, fourier_resolution, make_uniform_array
from .moments import MomentEstimatorConfig, estimate, model_power_spectrum
from .parametric import ParametricEstimatorConfig, estimate_parametric
from .profiles import (
    CovarianceModel,
    SourceProfile,
    characteristic_function,
    density,
    true_covariance,
)
from .sampling import derive_seed, sample_covariance, sample_snapshots

__all__ = [
    "KINDS",
    "PARAM_NAMES",
    "N_LIST_DEFAULT",
    "SIGMA_LIST_DEFAULT",
    "TRIALS_DEFAULT",
    "FAST_TRIALS",
    "ExperimentError",
    "EstimatorSpec",
    "ExperimentSpec",
    "ExperimentResult",
    "default_estimators",
    "default_spec",
    "wrap_height_error",
    "run_spectrum_dump",
    "run_rmse_vs_N",
    "run_asymptotic_bias_vs_sigma",
    "run_experiment",
]

KINDS = ("spectrum_dump", "rmse_vs_N", "asymptotic_bias_vs_sigma")
PARAM_NAMES = ("z0", "sigma_z", "P", "sigma_eps2")

# Snapshot-count sweep covering the asymptotic regime at desk scale.
N_LIST_DEFAULT = (25, 50, 100, 250, 500, 1000, 2500, 5000, 10000)
# Spread sweep in m for the default 100 m ambiguity (up to 30% of it).
SIGMA_LIST_DEFAULT = tuple(float(s) for s in range(0, 31))
TRIALS_DEFAULT = 5000
FAST_TRIALS = 500

_KIND_STREAM = {kind: index + 1 for index, kind in enumerate(KINDS)}
_SIGMA_SWEEP_CAP = 0.35
_FAILURE_RATE_LIMIT = 0.01

_CONFIG_TYPES = {"moments": MomentEstimatorConfig, "parametric": ParametricEstimatorConfig}
_SWEEP_NAMES = {"rmse_vs_N": "N", "asymptotic_bias_vs_sigma": "sigma_z"}
_RESULT_COLUMNS = (
    "experiment",
    "estimator",
    "sweep_name",
    "sweep_value",
    "parameter",
    "n_trials",
    "rmse",
    "rmse_normalized",
    "bias",
    "mean",
    "crb",
    "failures",
)
_HAT_COLUMNS = tuple(f"{name}_hat" for name in PARAM_NAMES)
_TRIAL_COLUMNS = ("estimator", "sweep_value", "trial", "failed") + _HAT_COLUMNS


class ExperimentError(RuntimeError):
    """Raised when an experiment run violates its own quality gates."""


@dataclass(frozen=True)
class EstimatorSpec:
    """A labeled estimator entry of an experiment."""

    label: str
    method: str
    config: MomentEstimatorConfig | ParametricEstimatorConfig

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("estimator label must be non-empty")
        expected = _CONFIG_TYPES.get(self.method)
        if expected is None:
            raise ValueError("method must be 'moments' or 'parametric'")
        if not isinstance(self.config, expected):
            raise ValueError(f"method {self.method!r} needs a {expected.__name__}")

    def to_json(self) -> dict:
        return {"label": self.label, **self.config.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "EstimatorSpec":
        method = str(obj.get("method", ""))
        if method not in _CONFIG_TYPES:
            raise ValueError("estimator entry needs method 'moments' or 'parametric'")
        return cls(label=str(obj["label"]), method=method, config=_CONFIG_TYPES[method].from_json(obj))


def _is_integer(value, least: int) -> bool:
    """Whether a count is an integral number >= ``least``; booleans are not counts."""
    return not isinstance(value, bool) and int(value) == value and value >= least


@dataclass(frozen=True)
class ExperimentSpec:
    """Complete description of one experiment run."""

    kind: str
    profile: SourceProfile
    array: ArrayConfig
    sigma_eps2: float
    estimators: tuple[EstimatorSpec, ...]
    N_list: tuple[int, ...] = N_LIST_DEFAULT
    sigma_list: tuple[float, ...] = SIGMA_LIST_DEFAULT
    trials: int = TRIALS_DEFAULT
    master_seed: int = 0
    output_dir: str = "out"
    timestamp_header: bool = True
    dump_trials: bool = False
    workers: int = 1

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        sigma_eps2 = float(self.sigma_eps2)
        if not (math.isfinite(sigma_eps2) and sigma_eps2 >= 0.0):
            raise ValueError("sigma_eps2 must be finite and nonnegative")
        object.__setattr__(self, "sigma_eps2", sigma_eps2)
        estimators = tuple(self.estimators)
        if not estimators:
            raise ValueError("at least one estimator is required")
        labels = [e.label for e in estimators]
        if len(set(labels)) != len(labels):
            raise ValueError("estimator labels must be unique")
        object.__setattr__(self, "estimators", estimators)
        N_list = tuple(self.N_list)
        if not all(_is_integer(n, 1) for n in N_list) or list(N_list) != sorted(set(N_list)):
            raise ValueError("N_list must be strictly increasing positive integers")
        object.__setattr__(self, "N_list", tuple(int(n) for n in N_list))
        if any(isinstance(s, bool) for s in self.sigma_list):
            raise ValueError("sigma_list must hold numbers, not booleans")
        sigma_list = tuple(float(s) for s in self.sigma_list)
        if any(not (math.isfinite(s) and s >= 0.0) for s in sigma_list) or list(
            sigma_list
        ) != sorted(set(sigma_list)):
            raise ValueError("sigma_list must be strictly increasing nonnegative values")
        object.__setattr__(self, "sigma_list", sigma_list)
        for name, least in (("trials", 1), ("master_seed", 0), ("workers", 1)):
            value = getattr(self, name)
            if not _is_integer(value, least):
                raise ValueError(f"{name} must be an integer >= {least}")
            object.__setattr__(self, name, int(value))
        for name in ("timestamp_header", "dump_trials"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "profile": self.profile.to_json(),
            "array": self.array.to_json(),
            "sigma_eps2": self.sigma_eps2,
            "estimators": [e.to_json() for e in self.estimators],
            "N_list": list(self.N_list),
            "sigma_list": list(self.sigma_list),
            "trials": self.trials,
            "master_seed": self.master_seed,
            "output_dir": self.output_dir,
            "timestamp_header": self.timestamp_header,
            "dump_trials": self.dump_trials,
            "workers": self.workers,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentSpec":
        kwargs = dict(
            kind=str(obj["kind"]),
            profile=SourceProfile.from_json(obj["profile"]),
            array=ArrayConfig.from_json(obj["array"]),
            sigma_eps2=float(obj["sigma_eps2"]),
            estimators=tuple(EstimatorSpec.from_json(e) for e in obj["estimators"]),
        )
        # the remaining fields take their JSON values as given; __post_init__ validates them
        for f in dataclasses.fields(cls):
            if f.name in obj and f.name not in kwargs:
                kwargs[f.name] = obj[f.name]
        return cls(**kwargs)


@dataclass
class ExperimentResult:
    """Aggregated rows plus the CSV files the run produced."""

    spec: ExperimentSpec
    rows: list = field(default_factory=list)
    files: dict = field(default_factory=dict)

    def select(self, **criteria) -> list:
        """Rows whose columns match all the given values."""
        out = []
        for row in self.rows:
            if all(row.get(k) == v for k, v in criteria.items()):
                out.append(row)
        return out


def default_estimators(truth_shape: str = "uniform") -> tuple[EstimatorSpec, ...]:
    """Benchmark set: both moment variants plus matched and mismatched shapes."""
    other = "gaussian" if truth_shape == "uniform" else "uniform"
    return (
        EstimatorSpec("moments-full", "moments", MomentEstimatorConfig(D=4, symmetric=False)),
        EstimatorSpec("moments-sym", "moments", MomentEstimatorConfig(D=4, symmetric=True)),
        EstimatorSpec(
            f"parametric-{truth_shape}", "parametric", ParametricEstimatorConfig(assumed_shape=truth_shape)
        ),
        EstimatorSpec(f"parametric-{other}", "parametric", ParametricEstimatorConfig(assumed_shape=other)),
    )


def default_spec(kind: str, **overrides) -> ExperimentSpec:
    """Reference scenario: uniform profile z0=10 m, sigma_z=5 m, P=100,
    sigma_eps2=10 on a 7-acquisition uniform stack with 100 m ambiguity."""
    base = dict(
        kind=kind,
        profile=SourceProfile("uniform", 10.0, 5.0, 100.0),
        array=make_uniform_array(7, 100.0),
        sigma_eps2=10.0,
        estimators=default_estimators("uniform"),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def wrap_height_error(delta, period: float):
    """Signed height error folded into ``[-period/2, period/2)``."""
    return (np.asarray(delta) + 0.5 * period) % period - 0.5 * period


def _height_period(spec: ExperimentSpec) -> float:
    if spec.array.ambiguity is not None:
        return float(spec.array.ambiguity)
    caps = [e.config.z0_max for e in spec.estimators if e.config.z0_max is not None]
    if caps:
        return float(max(caps))
    raise ValueError("no ambiguity or z0_max available to define the height period")


def _require_kind(spec: ExperimentSpec, kind: str) -> None:
    if spec.kind != kind:
        raise ValueError(f"spec kind is {spec.kind!r}, expected {kind!r}")


def _run_estimator(entry: EstimatorSpec, R_bar: CovarianceModel, array: ArrayConfig):
    if entry.method == "moments":
        return estimate(R_bar, entry.config, array)
    return estimate_parametric(R_bar, entry.config, array)


def _estimates(fit) -> tuple:
    """The fitted parameters in ``PARAM_NAMES`` order."""
    return (fit.z0_hat, fit.sigma_z_hat, fit.P_hat, fit.sigma_eps2_hat)


@dataclass(frozen=True)
class _TrialContext:
    R_true: CovarianceModel
    array: ArrayConfig
    estimators: tuple[EstimatorSpec, ...]
    N: int
    master_seed: int
    stream: int
    sweep_index: int


def _run_trial(context: _TrialContext, trial: int) -> tuple[int, dict]:
    seed = derive_seed(context.master_seed, context.stream, context.sweep_index, trial)
    stack = sample_snapshots(context.R_true, context.N, seed)
    R_bar = sample_covariance(stack)
    out = {}
    for entry in context.estimators:
        try:
            out[entry.label] = _estimates(_run_estimator(entry, R_bar, context.array))
        except (ValueError, np.linalg.LinAlgError):
            out[entry.label] = None
    return trial, out


def _collect_trials(context: _TrialContext, trials: int, workers: int) -> dict:
    """Per-estimator (trials, 4) arrays of estimates, NaN rows for failures."""
    results = {e.label: np.full((trials, 4), np.nan) for e in context.estimators}
    run = partial(_run_trial, context)
    if workers > 1:
        chunksize = max(1, trials // (8 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outputs = list(pool.map(run, range(trials), chunksize=chunksize))
    else:
        outputs = map(run, range(trials))
    for trial, out in outputs:
        for label, values in out.items():
            if values is not None:
                results[label][trial] = values
    return results


def _normalizers(spec: ExperimentSpec) -> dict:
    return {
        "z0": fourier_resolution(spec.array),
        "sigma_z": spec.profile.sigma_z if spec.profile.sigma_z > 0.0 else None,
        "P": spec.profile.P,
        "sigma_eps2": spec.sigma_eps2 if spec.sigma_eps2 > 0.0 else None,
    }


def _truths(profile: SourceProfile, sigma_eps2: float) -> dict:
    return {
        "z0": profile.z0,
        "sigma_z": profile.sigma_z,
        "P": profile.P,
        "sigma_eps2": sigma_eps2,
    }


def _errors(parameter: str, estimates: np.ndarray, truth: float, period: float) -> np.ndarray:
    if parameter == "z0":
        return wrap_height_error(estimates - truth, period)
    return estimates - truth


def _result_row(
    spec: ExperimentSpec,
    label: str,
    sweep_value,
    parameter: str,
    *,
    n_trials: int,
    failures: int,
    rmse: float,
    bias: float,
    mean: float,
    crb=None,
) -> dict:
    """One row of the shared result schema (``_RESULT_COLUMNS``)."""
    normalizer = _normalizers(spec)[parameter]
    return {
        "experiment": spec.kind,
        "estimator": label,
        "sweep_name": _SWEEP_NAMES[spec.kind],
        "sweep_value": sweep_value,
        "parameter": parameter,
        "n_trials": n_trials,
        "rmse": rmse,
        "rmse_normalized": rmse / normalizer if normalizer else None,
        "bias": bias,
        "mean": mean,
        "crb": crb,
        "failures": failures,
    }


def _interpolation_rows(label: str, fit, xi: np.ndarray, true_spectrum: np.ndarray, **keys) -> list:
    """Fitted moment spectrum against the true one on ``xi``, one row per point."""
    model = np.real(model_power_spectrum(fit.P_hat, fit.nu, xi))
    return [
        {"estimator": label, **keys, "xi": float(x), "model_spectrum": float(m), "true_spectrum": float(t)}
        for x, m, t in zip(xi, model, true_spectrum)
    ]


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return "" if math.isnan(value) else repr(value)
    return str(value)


def _write_csv(path: Path, columns, rows, timestamp_header: bool) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as handle:
        if timestamp_header:
            stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
            handle.write(f"# generated {stamp}\n")
        writer = csv.writer(handle)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row.get(column)) for column in columns])


def _write_result(spec: ExperimentSpec, rows: list, tables) -> ExperimentResult:
    """Write each ``(name, columns, rows)`` table to ``<output_dir>/<name>.csv``."""
    result = ExperimentResult(spec=spec, rows=rows)
    for name, columns, table in tables:
        path = Path(spec.output_dir) / f"{name}.csv"
        _write_csv(path, columns, table, spec.timestamp_header)
        result.files[name] = str(path)
    return result


def _check_failure_rates(rows, trials: int) -> None:
    worst = None
    for row in rows:
        failures = row.get("failures") or 0
        if failures > _FAILURE_RATE_LIMIT * trials:
            key = (row["estimator"], row["sweep_value"], failures)
            if worst is None or failures > worst[2]:
                worst = key
    if worst is not None:
        raise ExperimentError(
            f"estimator {worst[0]!r} failed {worst[2]} of {trials} trials at "
            f"sweep value {worst[1]} (limit {_FAILURE_RATE_LIMIT:.0%})"
        )


def run_rmse_vs_N(spec: ExperimentSpec) -> ExperimentResult:
    """Monte Carlo RMSE/bias sweep over snapshot counts, with CRB columns.

    All estimators see the same realizations trial for trial.  Height errors
    are wrapped on the ambiguity interval.  Writes ``rmse_vs_N.csv`` (plus
    ``rmse_vs_N_trials.csv`` when per-trial dumps are enabled) and raises
    :class:`ExperimentError` if any estimator fails more than 1% of trials.
    """
    _require_kind(spec, "rmse_vs_N")
    period = _height_period(spec)
    R_true = true_covariance(spec.profile, spec.array, spec.sigma_eps2)
    truths = _truths(spec.profile, spec.sigma_eps2)
    try:
        fim_unit = fisher_information(spec.profile, spec.array, spec.sigma_eps2, 1)
    except (SingularFimError, ValueError):
        fim_unit = None

    rows = []
    trial_rows = []
    for sweep_index, N in enumerate(spec.N_list):
        context = _TrialContext(
            R_true=R_true,
            array=spec.array,
            estimators=spec.estimators,
            N=N,
            master_seed=spec.master_seed,
            stream=_KIND_STREAM[spec.kind],
            sweep_index=sweep_index,
        )
        estimates = _collect_trials(context, spec.trials, spec.workers)
        crb = None
        if fim_unit is not None:
            crb = crb_stddev(fim_unit, n_scale=N).bounds
        for entry in spec.estimators:
            values = estimates[entry.label]
            ok = ~np.isnan(values[:, 0])
            n_ok = int(ok.sum())
            failures = spec.trials - n_ok
            for column, parameter in enumerate(PARAM_NAMES):
                if n_ok > 0:
                    errors = _errors(parameter, values[ok, column], truths[parameter], period)
                    rmse = float(np.sqrt(np.mean(errors**2)))
                    bias = float(np.mean(errors))
                else:
                    rmse = float("nan")
                    bias = float("nan")
                rows.append(
                    _result_row(
                        spec,
                        entry.label,
                        N,
                        parameter,
                        n_trials=n_ok,
                        failures=failures,
                        rmse=rmse,
                        bias=bias,
                        mean=truths[parameter] + bias,
                        crb=crb[parameter] if crb else None,
                    )
                )
            if spec.dump_trials:
                for trial in range(spec.trials):
                    row = {
                        "estimator": entry.label,
                        "sweep_value": N,
                        "trial": trial,
                        "failed": bool(np.isnan(values[trial, 0])),
                    }
                    row.update(zip(_HAT_COLUMNS, map(float, values[trial])))
                    trial_rows.append(row)

    tables = [("rmse_vs_N", _RESULT_COLUMNS, rows)]
    if spec.dump_trials:
        tables.append(("rmse_vs_N_trials", _TRIAL_COLUMNS, trial_rows))
    result = _write_result(spec, rows, tables)
    _check_failure_rates(rows, spec.trials)
    return result


def _spectrum_xi_grid(array: ArrayConfig, points: int = 321) -> np.ndarray:
    span = float(array.kz[-1] - array.kz[0])
    return np.linspace(0.0, 1.05 * span, points)


def run_asymptotic_bias_vs_sigma(spec: ExperimentSpec) -> ExperimentResult:
    """Deterministic bias scan in the infinite-snapshot limit.

    Each estimator is fed the exact covariance of the scenario at every
    sigma_z in the sweep.  Writes ``asymptotic_bias_vs_sigma.csv`` and a
    companion ``asymptotic_interpolation.csv`` with the fitted moment
    spectra against the true ones.
    """
    _require_kind(spec, "asymptotic_bias_vs_sigma")
    if spec.profile.shape == "point":
        raise ValueError("the sigma_z sweep needs a spread profile shape")
    if spec.array.ambiguity is not None:
        cap = _SIGMA_SWEEP_CAP * spec.array.ambiguity
        if max(spec.sigma_list) > cap:
            raise ValueError(f"sigma_list exceeds {_SIGMA_SWEEP_CAP:.0%} of the ambiguity ({cap:.3g} m)")
    period = _height_period(spec)
    xi = _spectrum_xi_grid(spec.array)

    rows = []
    interpolation_rows = []
    for sigma in spec.sigma_list:
        profile = dataclasses.replace(spec.profile, sigma_z=sigma)
        R = true_covariance(profile, spec.array, spec.sigma_eps2)
        truths = _truths(profile, spec.sigma_eps2)
        true_spectrum = profile.P * np.real(characteristic_function(profile, xi))
        for entry in spec.estimators:
            try:
                fit = _run_estimator(entry, R, spec.array)
            except (ValueError, np.linalg.LinAlgError):
                fit = None
            if fit is not None and entry.method == "moments":
                interpolation_rows += _interpolation_rows(entry.label, fit, xi, true_spectrum, sigma_z=sigma)
            values = (float("nan"),) * 4 if fit is None else _estimates(fit)
            for column, parameter in enumerate(PARAM_NAMES):
                bias = float(_errors(parameter, values[column], truths[parameter], period))
                rows.append(
                    _result_row(
                        spec,
                        entry.label,
                        sigma,
                        parameter,
                        n_trials=0 if fit is None else 1,
                        failures=1 if fit is None else 0,
                        rmse=abs(bias),
                        bias=bias,
                        mean=values[column],
                    )
                )

    columns = ("estimator", "sigma_z", "xi", "model_spectrum", "true_spectrum")
    result = _write_result(
        spec,
        rows,
        (
            ("asymptotic_bias_vs_sigma", _RESULT_COLUMNS, rows),
            ("asymptotic_interpolation", columns, interpolation_rows),
        ),
    )
    _check_failure_rates(rows, 1)
    return result


def run_spectrum_dump(spec: ExperimentSpec) -> ExperimentResult:
    """Dump density curves, power spectra and the fitted moment polynomial.

    Families plotted: the uniform and gaussian shapes sharing the scenario's
    height, spread and power (the point shape when the spread is zero),
    the small-spread parabola ``P (1 - sigma_z^2 xi^2 / 2)``, the spectrum
    values observed at the array baselines, and for each moment estimator in
    ``spec`` the polynomial fitted on the exact covariance.
    """
    _require_kind(spec, "spectrum_dump")
    profile = spec.profile
    if profile.sigma_z > 0.0:
        families = [
            dataclasses.replace(profile, shape="uniform"),
            dataclasses.replace(profile, shape="gaussian"),
        ]
    else:
        families = [dataclasses.replace(profile, shape="point")]
    xi = _spectrum_xi_grid(spec.array)

    density_rows = []
    for member in families:
        if member.shape == "point":
            continue
        half_span = 4.5 * member.sigma_z
        z_grid = np.linspace(member.z0 - half_span, member.z0 + half_span, 401)
        p = density(member, z_grid)
        for z, value in zip(z_grid, p):
            density_rows.append({"shape": member.shape, "z": float(z), "density": float(value)})

    curve_rows = []
    for member in families:
        spectrum = member.P * np.real(characteristic_function(member, xi))
        for x, value in zip(xi, spectrum):
            curve_rows.append({"curve": member.shape, "xi": float(x), "value": float(value)})
    parabola = profile.P * (1.0 - 0.5 * (profile.sigma_z * xi) ** 2)
    for x, value in zip(xi, parabola):
        curve_rows.append({"curve": "parabola", "xi": float(x), "value": float(value)})

    baselines = np.unique(np.abs(baseline_differences(spec.array)))
    measurement_rows = []
    for member in families:
        spectrum = member.P * np.real(characteristic_function(member, baselines))
        for x, value in zip(baselines, spectrum):
            observed = value + (spec.sigma_eps2 if x == 0.0 else 0.0)
            measurement_rows.append(
                {
                    "shape": member.shape,
                    "xi": float(x),
                    "spectrum": float(value),
                    "observed": float(observed),
                }
            )

    interpolation_rows = []
    R = true_covariance(profile, spec.array, spec.sigma_eps2)
    true_spectrum = profile.P * np.real(characteristic_function(profile, xi))
    for entry in spec.estimators:
        if entry.method == "moments":
            fit = _run_estimator(entry, R, spec.array)
            interpolation_rows += _interpolation_rows(entry.label, fit, xi, true_spectrum)

    return _write_result(
        spec,
        [],
        (
            ("spectrum_densities", ("shape", "z", "density"), density_rows),
            ("spectrum_curves", ("curve", "xi", "value"), curve_rows),
            ("spectrum_measurements", ("shape", "xi", "spectrum", "observed"), measurement_rows),
            ("spectrum_interpolation", ("estimator", "xi", "model_spectrum", "true_spectrum"), interpolation_rows),
        ),
    )


_RUNNERS = {
    "spectrum_dump": run_spectrum_dump,
    "rmse_vs_N": run_rmse_vs_N,
    "asymptotic_bias_vs_sigma": run_asymptotic_bias_vs_sigma,
}


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Dispatch a spec to its runner."""
    return _RUNNERS[spec.kind](spec)
