"""Benchmark experiments: spectrum dumps, RMSE sweeps and asymptotic bias scans.

Every experiment is described by a single :class:`ExperimentSpec` (JSON
serializable field by field; its values are checked by the rules of
:mod:`tomoments._fields`, so a count such as ``trials`` may be ``100.0`` but
not ``true``, ``"100"`` or ``Infinity``) and writes deterministic
long-format CSV files.  Trials are seeded individually from the master
seed, so results are independent of the execution order and of the worker
count.  An estimator entry is a label and a config; the config's class
decides which estimator runs, and its JSON ``"method"`` names that class.

The RMSE and bias experiments run through one sweep runner, ``_run_sweep``:
at each sweep point it builds the truth and its exact covariance, takes a
(trials, 4) estimate array per estimator (seeded sample trials for
``rmse_vs_N``, one fit of the exact covariance for
``asymptotic_bias_vs_sigma``) and computes every result row with the same
statistics.  What differs between the two kinds is data: the sweep values
and truths, the CRB column, the extra table and the rule for the ``mean``
cell.  Every covariance a sweep fits goes through ``_fits``: it is prepared
once per weighting (:class:`~tomoments.fitting.PreparedCovariance`) and
shared by the estimators with that weighting, one estimator call per fit.

Every table is a sequence of column blocks: a block maps each column to a
scalar or to a 1-d array, and the arrays of one block share their length,
so a row dict is a block of scalars and an array block is one row per
element.  ``_write_result`` formats each block itself, in ``csv``'s default
dialect, and writes it as soon as it is formatted; an array that the
previous block also holds (the xi grid, a true spectrum shared by two fits)
is formatted once.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import re
import sys
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from ._fields import choice, count, flag, from_json, items, real, to_json
from .crb import PARAMETERS, SingularFimError, crb_stddev, fisher_information
from .fitting import PreparedCovariance, _frequency_groups
from .geometry import ArrayConfig, fourier_resolution, make_uniform_array
from .moments import MomentEstimatorConfig, _moment_plan, estimate, model_power_spectrum
from .parametric import ParametricEstimatorConfig, _parametric_plan, estimate_parametric
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
PARAM_NAMES = PARAMETERS  # the CRB's order, which the CSV columns follow

# Snapshot-count sweep covering the asymptotic regime at desk scale.
N_LIST_DEFAULT = (25, 50, 100, 250, 500, 1000, 2500, 5000, 10000)
# Spread sweep in m for the default 100 m ambiguity (up to 30% of it).
SIGMA_LIST_DEFAULT = tuple(float(s) for s in range(0, 31))
TRIALS_DEFAULT = 5000
FAST_TRIALS = 500

_KIND_STREAM = {kind: index + 1 for index, kind in enumerate(KINDS)}
_SIGMA_SWEEP_CAP = 0.35
_FAILURE_RATE_LIMIT = 0.01
_SPECTRUM_XI_POINTS = 321

_CONFIG_TYPES = {"moments": MomentEstimatorConfig, "parametric": ParametricEstimatorConfig}
# the cached search plan of each config class; building it refuses a config its array cannot run
_PLANS = {MomentEstimatorConfig: _moment_plan, ParametricEstimatorConfig: _parametric_plan}
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
_BOOLS = (bool, np.bool_)
# a field holding one of these is quoted in csv's default dialect
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


class ExperimentError(RuntimeError):
    """Raised when an experiment run violates its own quality gates."""


@dataclass(frozen=True)
class EstimatorSpec:
    """A labeled estimator entry of an experiment; the config's class is the estimator."""

    label: str
    config: MomentEstimatorConfig | ParametricEstimatorConfig

    def __post_init__(self) -> None:
        if not (isinstance(self.label, str) and self.label):
            raise ValueError(f"estimator label must be a non-empty string, got {self.label!r}")
        if type(self.config) not in _PLANS:
            raise ValueError(f"estimator config must be a moment or parametric estimator config, got {self.config!r}")

    def to_json(self) -> dict:
        return {"label": self.label, **self.config.to_json()}

    @classmethod
    def from_json(cls, obj: dict) -> "EstimatorSpec":
        if not (isinstance(obj, dict) and "label" in obj):
            raise ValueError(f"estimator JSON must be an object with a 'label', got {obj!r}")
        method = choice(obj.get("method"), tuple(_CONFIG_TYPES), "method")
        config = dict(obj)
        return cls(label=config.pop("label"), config=_CONFIG_TYPES[method].from_json(config))


@dataclass(frozen=True)
class ExperimentSpec:
    """Complete description of one experiment run.  Building it builds each estimator's
    cached search plan on the array, so a config the array cannot run is refused here."""

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
        choice(self.kind, KINDS, "kind")
        for name, cls in (("profile", SourceProfile), ("array", ArrayConfig)):
            if not isinstance(getattr(self, name), cls):
                raise ValueError(f"{name} must be a {cls.__name__}, got {getattr(self, name)!r}")
        object.__setattr__(self, "sigma_eps2", real(self.sigma_eps2, "sigma_eps2", least=0.0))
        estimators = items(self.estimators, "estimators")
        if not estimators:
            raise ValueError("at least one estimator is required")
        for entry in estimators:
            if not isinstance(entry, EstimatorSpec):
                raise ValueError(f"estimators must hold EstimatorSpec entries, got {entry!r}")
            _PLANS[type(entry.config)](entry.config, self.array)
        labels = [e.label for e in estimators]
        if len(set(labels)) != len(labels):
            raise ValueError("estimator labels must be unique")
        object.__setattr__(self, "estimators", estimators)
        for name, check in (("N_list", partial(count, least=1)), ("sigma_list", partial(real, least=0.0))):
            values = tuple(check(value, name) for value in items(getattr(self, name), name))
            if not values:
                raise ValueError(f"{name} must hold at least one value")
            if list(values) != sorted(set(values)):
                raise ValueError(f"{name} must be strictly increasing")
            object.__setattr__(self, name, values)
        for name, least in (("trials", 1), ("master_seed", 0), ("workers", 1)):
            object.__setattr__(self, name, count(getattr(self, name), name, least=least))
        if self.kind == "rmse_vs_N":
            _warn_small_N(self.N_list, self.array.M, estimators)
        if not isinstance(self.output_dir, str):
            raise ValueError(f"output_dir must be a string, got {self.output_dir!r}")
        flag(self.timestamp_header, "timestamp_header")
        flag(self.dump_trials, "dump_trials")

    def to_json(self) -> dict:
        return to_json(self)

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentSpec":
        return from_json(
            cls,
            obj,
            profile=SourceProfile.from_json,
            array=ArrayConfig.from_json,
            estimators=lambda entries: tuple(EstimatorSpec.from_json(e) for e in items(entries, "estimators")),
        )


def _warn_small_N(N_list, M: int, estimators) -> None:
    """Name the regime where inverse-sample weighting does not hold: a sample
    covariance of N <= M snapshots is singular or nearly so (the mean of its
    inverse exists only for N > M), so its inverse weights the fit by noise."""
    small = [N for N in N_list if N <= M]
    labels = [entry.label for entry in estimators if entry.config.weighting == "inverse_sample"]
    if small and labels:
        # the warning names the first caller outside the package, whichever of
        # its constructors built the spec (skip_file_prefixes needs Python 3.12)
        frame, stacklevel = sys._getframe(), 1
        while frame.f_back is not None and frame.f_globals.get("__name__", "").partition(".")[0] == __package__:
            frame, stacklevel = frame.f_back, stacklevel + 1
        warnings.warn(
            f"rmse_vs_N at N = {', '.join(map(str, small))} <= M = {M} acquisitions with inverse-sample "
            f"weighting ({', '.join(labels)}): the sample covariance is singular or nearly so there, and "
            "its inverse makes a poor weighting; identity weighting holds at any N",
            UserWarning,
            stacklevel=stacklevel,
        )


@dataclass
class ExperimentResult:
    """Aggregated rows plus the CSV files the run produced."""

    spec: ExperimentSpec
    rows: list = field(default_factory=list)
    files: dict = field(default_factory=dict)

    def select(self, **criteria) -> list:
        """Rows whose columns match all the given values; a name that is not a column raises ``KeyError``."""
        return [row for row in self.rows if all(row[k] == v for k, v in criteria.items())]


def default_estimators(truth_shape: str = "uniform") -> tuple[EstimatorSpec, ...]:
    """Benchmark set: both moment variants plus matched and mismatched shapes."""
    other = "gaussian" if truth_shape == "uniform" else "uniform"
    return (
        EstimatorSpec("moments-full", MomentEstimatorConfig(D=4, symmetric=False)),
        EstimatorSpec("moments-sym", MomentEstimatorConfig(D=4, symmetric=True)),
        EstimatorSpec(f"parametric-{truth_shape}", ParametricEstimatorConfig(assumed_shape=truth_shape)),
        EstimatorSpec(f"parametric-{other}", ParametricEstimatorConfig(assumed_shape=other)),
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


def _require_kind(spec: ExperimentSpec, kind: str) -> None:
    if spec.kind != kind:
        raise ValueError(f"spec kind is {spec.kind!r}, expected {kind!r}")


def _fits(spec: ExperimentSpec, R_bar: CovarianceModel) -> list:
    """Each estimator's fit of ``R_bar``, or None where it failed with a numerical
    error (a failed trial).  ``R_bar`` is prepared once per weighting and shared
    by the estimators with that weighting; a preparation that fails is not
    kept, so every estimator with its weighting fails alike."""
    prepared = {}
    fits = []
    for entry in spec.estimators:
        weighting = entry.config.weighting
        try:
            if weighting not in prepared:
                prepared[weighting] = PreparedCovariance(R_bar, spec.array, weighting)
            run = estimate if isinstance(entry.config, MomentEstimatorConfig) else estimate_parametric
            fit = run(prepared[weighting], entry.config, spec.array)
        except (ValueError, np.linalg.LinAlgError):
            fit = None
        fits.append(fit)
    return fits


def _estimates(fit) -> tuple:
    """The fitted parameters in ``PARAM_NAMES`` order, NaN for a failed fit."""
    if fit is None:
        return (float("nan"),) * 4
    return (fit.z0_hat, fit.sigma_z_hat, fit.P_hat, fit.sigma_eps2_hat)


def _run_trial(
    spec: ExperimentSpec, sweep_index: int, N: int, R_true: CovarianceModel, trial: int, out=None
) -> list:
    """Every estimator's estimates on one seeded sample covariance, its
    snapshots drawn into ``out`` (see :func:`~tomoments.sampling.sample_snapshots`)."""
    seed = derive_seed(spec.master_seed, _KIND_STREAM[spec.kind], sweep_index, trial)
    R_bar = sample_covariance(sample_snapshots(R_true, N, seed, out=out))
    return [_estimates(fit) for fit in _fits(spec, R_bar)]


def _run_trials(spec: ExperimentSpec, sweep_index: int, N: int, R_true: CovarianceModel, trials: range) -> list:
    """``_run_trial`` of each trial of a chunk, every one drawn into one
    snapshot buffer: at large N a fresh stack per trial costs the allocator's
    page faults, which one buffer pays once per chunk."""
    out = np.empty((N, R_true.M), dtype=complex)
    return [_run_trial(spec, sweep_index, N, R_true, trial, out) for trial in trials]


def _process_pool(max_workers: int):
    """A process pool of ``max_workers`` processes.  Imported here, as only
    ``workers > 1`` opens one: ``concurrent.futures.process`` loads
    ``multiprocessing``, about 16 ms of a fresh interpreter's start on a
    2-vCPU x86 VM (Python 3.11)."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


def _collect_trials(spec: ExperimentSpec, sweep_index: int, N: int, R_true: CovarianceModel) -> np.ndarray:
    """(estimators, trials, 4) estimates, NaN rows for failures.

    The trials run in chunks (``_run_trials``): a serial run is one chunk of
    all trials, a pool runs chunks of ``trials // (8 workers)`` trials, at
    least one, a task each.  The pool has at most one process per trial and
    per CPU the process may use (``os.process_cpu_count``, else
    ``os.cpu_count``): under ``fork`` it starts all ``max_workers`` processes
    with the first task.
    """
    run = partial(_run_trials, spec, sweep_index, N, R_true)
    trials = range(spec.trials)
    workers = min(spec.workers, spec.trials, getattr(os, "process_cpu_count", os.cpu_count)() or 1)
    if workers > 1:
        size = max(1, spec.trials // (8 * workers))
        with _process_pool(max_workers=workers) as pool:
            chunks = list(pool.map(run, [trials[start : start + size] for start in trials[::size]]))
    else:
        chunks = [run(trials)]
    return np.array(list(itertools.chain.from_iterable(chunks)), dtype=float).transpose(1, 0, 2)


def _normalizers(spec: ExperimentSpec) -> dict:
    return {
        "z0": fourier_resolution(spec.array),
        "sigma_z": spec.profile.sigma_z if spec.profile.sigma_z > 0.0 else None,
        "P": spec.profile.P,
        "sigma_eps2": spec.sigma_eps2 if spec.sigma_eps2 > 0.0 else None,
    }


def _errors(parameter: str, estimates: np.ndarray, truth: float, period: float | None) -> np.ndarray:
    if parameter == "z0" and period is not None:
        return wrap_height_error(estimates - truth, period)
    return estimates - truth


def _interpolation_block(label: str, fit, xi: np.ndarray, true_spectrum: np.ndarray, **keys) -> dict:
    """Fitted moment spectrum against the true one on ``xi``: one block, a row per point."""
    model = np.real(model_power_spectrum(fit.P_hat, fit.nu, xi))
    return {"estimator": label, **keys, "xi": xi, "model_spectrum": model, "true_spectrum": true_spectrum}


def _format_cell(value):
    """One value as the cell ``csv`` writes: NaN gives an empty cell and a
    boolean ``true``/``false``.  Anything else passes through: ``csv`` writes
    None as an empty cell and any other value by its ``str``."""
    if value != value:
        return ""
    if type(value) in _BOOLS:  # bool has no subclasses, and isinstance on numpy.bool_ costs several times more
        return "true" if value else "false"
    return value


def _field(value) -> str:
    """The field ``csv``'s default dialect writes for one value: the ``str`` of
    its cell (None: empty), quoted with its quotes doubled when it holds ``,``, ``"``, CR or LF."""
    cell = _format_cell(value)
    text = "" if cell is None else str(cell)
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES.search(text) else text


def _array_fields(values: np.ndarray) -> list:
    """The fields of a 1-d array column, those of its ``tolist()`` elements, one per row."""
    if values.dtype.kind != "f":
        return list(map(_field, values.tolist()))
    fields = list(map(str, values.tolist()))  # a float's str needs no quotes
    for index in np.flatnonzero(np.isnan(values)).tolist():
        fields[index] = ""
    return fields


def _table_text(columns, blocks):
    """A table's CSV text in ``csv``'s default dialect, one string per block:
    fields joined by commas, each row ended by CR LF.  The header is a first
    block of the column names.  A block that lacks a column raises
    ``KeyError``; one whose arrays are not 1-d or differ in length raises
    ``ValueError`` naming the column."""
    held = {}  # id -> (array, fields) of the previous block's arrays; holding each array keeps its id unique
    for block in itertools.chain([dict(zip(columns, columns))], blocks):
        fields, rows, current = [], None, {}
        for column in columns:
            value = block[column]
            if not isinstance(value, np.ndarray):
                fields.append(_field(value))
                continue
            if value.ndim != 1:
                raise ValueError(f"column {column!r} holds a {value.ndim}-d array; a block's arrays are 1-d")
            if rows is None:
                rows = value.size
            elif value.size != rows:
                raise ValueError(f"column {column!r} has {value.size} rows where the block's other arrays have {rows}")
            key = id(value)
            current[key] = current.get(key) or held.get(key) or (value, _array_fields(value))
            fields.append(current[key][1])
        held = current
        rows = 1 if rows is None else rows
        if rows:
            lines = map(",".join, zip(*(f if isinstance(f, list) else itertools.repeat(f, rows) for f in fields)))
            if len(columns) == 1:  # csv quotes a row's lone empty field, which would otherwise read as no field
                lines = (line or '""' for line in lines)
            yield "\r\n".join(lines) + "\r\n"


def _write_result(spec: ExperimentSpec, rows: list, tables) -> ExperimentResult:
    """Write each ``(name, columns, blocks)`` table to ``<output_dir>/<name>.csv``,
    a block at a time (see ``_table_text``); ``rows`` are the main table's row dicts."""
    result = ExperimentResult(spec=spec, rows=rows)
    output_dir = Path(spec.output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    for name, columns, blocks in tables:
        path = output_dir / f"{name}.csv"
        with open(path, "w", newline="") as handle:
            if spec.timestamp_header:
                stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
                handle.write(f"# generated {stamp}\n")
            handle.writelines(_table_text(columns, blocks))
        result.files[name] = str(path)
    return result


def _check_failure_rates(rows) -> None:
    over = [row for row in rows if row["failures"] > _FAILURE_RATE_LIMIT * (row["n_trials"] + row["failures"])]
    if over:
        worst = max(over, key=lambda row: row["failures"])
        raise ExperimentError(
            f"estimator {worst['estimator']!r} failed {worst['failures']} of "
            f"{worst['n_trials'] + worst['failures']} trials at sweep value {worst['sweep_value']} "
            f"(limit {_FAILURE_RATE_LIMIT:.0%})"
        )


def _run_sweep(spec: ExperimentSpec, points, fit_point, extra_table, *, crb_at=None, mean_of_fits=False):
    """The one loop of the RMSE and bias experiments.

    ``points`` holds ``(sweep_value, truth profile)`` pairs.  At each one,
    ``fit_point(sweep_index, sweep_value, profile, R)`` gets the exact
    covariance ``R`` and returns the (estimators, trials, 4) estimates, NaN
    rows for failed fits, plus its blocks of ``extra_table = (name, columns)``
    (None: no extra table).  Every parameter row takes
    ``rmse = sqrt(mean(e**2))`` and ``bias = mean(e)`` over the successful
    trials; ``mean`` is truth + bias, or the mean of the fitted values when
    ``mean_of_fits`` (the two differ in the last bit).  ``crb_at(sweep_value)``
    gives the CRB column, if any.
    """
    # a stack without an ambiguity has no period to fold height errors on: its
    # heights do not repeat, so an error across the searched interval is a large one
    period = spec.array.ambiguity
    normalizers = _normalizers(spec)
    rows, extra_blocks = [], []
    for sweep_index, (sweep_value, profile) in enumerate(points):
        R = true_covariance(profile, spec.array, spec.sigma_eps2)
        estimates, extra = fit_point(sweep_index, sweep_value, profile, R)
        extra_blocks += extra
        crb = crb_at(sweep_value) if crb_at else None
        truths = dict(zip(PARAM_NAMES, (profile.z0, profile.sigma_z, profile.P, spec.sigma_eps2)))
        for entry, values in zip(spec.estimators, estimates):
            ok = ~np.isnan(values[:, 0])
            n_ok = int(ok.sum())
            for column, parameter in enumerate(PARAM_NAMES):
                rmse = bias = mean = float("nan")
                if n_ok > 0:
                    errors = _errors(parameter, values[ok, column], truths[parameter], period)
                    rmse = float(np.sqrt(np.mean(errors**2)))
                    bias = float(np.mean(errors))
                    mean = float(np.mean(values[ok, column])) if mean_of_fits else truths[parameter] + bias
                normalizer = normalizers[parameter]
                rows.append(
                    {
                        "experiment": spec.kind,
                        "estimator": entry.label,
                        "sweep_name": _SWEEP_NAMES[spec.kind],
                        "sweep_value": sweep_value,
                        "parameter": parameter,
                        "n_trials": n_ok,
                        "rmse": rmse,
                        "rmse_normalized": rmse / normalizer if normalizer else None,
                        "bias": bias,
                        "mean": mean,
                        "crb": crb[parameter] if crb else None,
                        "failures": values.shape[0] - n_ok,
                    }
                )

    tables = [(spec.kind, _RESULT_COLUMNS, rows)]
    if extra_table is not None:
        tables.append((*extra_table, extra_blocks))
    result = _write_result(spec, rows, tables)
    _check_failure_rates(rows)
    return result


def run_rmse_vs_N(spec: ExperimentSpec) -> ExperimentResult:
    """Monte Carlo RMSE/bias sweep over snapshot counts, with CRB columns.

    All estimators see the same realizations trial for trial.  Height errors
    are wrapped on the ambiguity interval (not at all on a stack without
    one).  Writes ``rmse_vs_N.csv`` (plus
    ``rmse_vs_N_trials.csv`` when per-trial dumps are enabled) and raises
    :class:`ExperimentError` if any estimator fails more than 1% of trials.
    """
    _require_kind(spec, "rmse_vs_N")
    try:
        fim_unit = fisher_information(spec.profile, spec.array, spec.sigma_eps2, 1)
    except (SingularFimError, ValueError):
        fim_unit = None

    def trials(sweep_index, N, profile, R_true):
        estimates = _collect_trials(spec, sweep_index, N, R_true)
        trial = np.arange(spec.trials)
        dump = [
            {"estimator": entry.label, "sweep_value": N, "trial": trial, "failed": np.isnan(values[:, 0]),
             **dict(zip(_HAT_COLUMNS, values.T))}
            for entry, values in zip(spec.estimators, estimates if spec.dump_trials else ())
        ]
        return estimates, dump

    return _run_sweep(
        spec,
        [(N, spec.profile) for N in spec.N_list],
        trials,
        ("rmse_vs_N_trials", _TRIAL_COLUMNS) if spec.dump_trials else None,
        crb_at=None if fim_unit is None else lambda N: crb_stddev(fim_unit, n_scale=N),
    )


def _spectrum_xi_grid(array: ArrayConfig) -> np.ndarray:
    span = float(array.kz[-1] - array.kz[0])
    return np.linspace(0.0, 1.05 * span, _SPECTRUM_XI_POINTS)


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
    xi = _spectrum_xi_grid(spec.array)

    def exact_fit(sweep_index, sigma, profile, R):
        true_spectrum = profile.P * np.real(characteristic_function(profile, xi))
        fits = _fits(spec, R)
        interpolation = [
            _interpolation_block(entry.label, fit, xi, true_spectrum, sigma_z=sigma)
            for entry, fit in zip(spec.estimators, fits)
            if fit is not None and isinstance(entry.config, MomentEstimatorConfig)
        ]
        return np.array([[_estimates(fit)] for fit in fits], dtype=float), interpolation

    return _run_sweep(
        spec,
        [(sigma, dataclasses.replace(spec.profile, sigma_z=sigma)) for sigma in spec.sigma_list],
        exact_fit,
        ("asymptotic_interpolation", ("estimator", "sigma_z", "xi", "model_spectrum", "true_spectrum")),
        mean_of_fits=True,
    )


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

    frequencies = _frequency_groups(spec.array)[0]
    baselines = frequencies[frequencies.size // 2 :]  # the distinct |kz_m - kz_n|, sorted
    noise = np.where(baselines == 0.0, spec.sigma_eps2, 0.0)  # adding 0.0 keeps every other value's bits
    densities, curves, measurements = [], [], []
    for member in families:
        if member.shape != "point":
            half_span = 4.5 * member.sigma_z
            z_grid = np.linspace(member.z0 - half_span, member.z0 + half_span, 401)
            densities.append({"shape": member.shape, "z": z_grid, "density": density(member, z_grid)})
        curve = member.P * np.real(characteristic_function(member, xi))
        curves.append({"curve": member.shape, "xi": xi, "value": curve})
        spectrum = member.P * np.real(characteristic_function(member, baselines))
        observed = spectrum + noise
        measurements.append({"shape": member.shape, "xi": baselines, "spectrum": spectrum, "observed": observed})
    parabola = profile.P * (1.0 - 0.5 * (profile.sigma_z * xi) ** 2)
    curves.append({"curve": "parabola", "xi": xi, "value": parabola})

    R = true_covariance(profile, spec.array, spec.sigma_eps2)
    true_spectrum = profile.P * np.real(characteristic_function(profile, xi))
    interpolation = [
        _interpolation_block(entry.label, estimate(R, entry.config, spec.array), xi, true_spectrum)
        for entry in spec.estimators
        if isinstance(entry.config, MomentEstimatorConfig)
    ]

    return _write_result(
        spec,
        [],
        (
            ("spectrum_densities", ("shape", "z", "density"), densities),
            ("spectrum_curves", ("curve", "xi", "value"), curves),
            ("spectrum_measurements", ("shape", "xi", "spectrum", "observed"), measurements),
            ("spectrum_interpolation", ("estimator", "xi", "model_spectrum", "true_spectrum"), interpolation),
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
