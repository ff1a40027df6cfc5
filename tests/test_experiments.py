import csv
import dataclasses
import io
import json
import math
import os
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tomoments import (
    ArrayConfig,
    DegenerateCovarianceError,
    EstimatorSpec,
    ExperimentError,
    ExperimentSpec,
    MomentEstimatorConfig,
    ParametricEstimatorConfig,
    SourceProfile,
    default_estimators,
    default_spec,
    estimate,
    estimate_parametric,
    make_uniform_array,
    run_asymptotic_bias_vs_sigma,
    run_experiment,
    run_rmse_vs_N,
    run_spectrum_dump,
    true_covariance,
    wrap_height_error,
)
from tomoments.cli import main
from tomoments.experiments import PARAM_NAMES, _format_cell, _write_result

MOMENTS_SYM = EstimatorSpec("moments-sym", MomentEstimatorConfig(D=4, symmetric=True))


def _read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_default_estimators_labels():
    labels = [e.label for e in default_estimators("uniform")]
    assert labels == ["moments-full", "moments-sym", "parametric-uniform", "parametric-gaussian"]
    labels = [e.label for e in default_estimators("gaussian")]
    assert labels == ["moments-full", "moments-sym", "parametric-gaussian", "parametric-uniform"]
    # the config's class is the estimator, and the JSON names it by "method"
    config_types = {"moments": MomentEstimatorConfig, "parametric": ParametricEstimatorConfig}
    for entry in default_estimators("uniform") + default_estimators("gaussian"):
        method = entry.label.split("-")[0]
        assert type(entry.config) is config_types[method]
        obj = entry.to_json()
        assert obj["method"] == method
        assert EstimatorSpec.from_json(obj) == entry
        with pytest.raises(ValueError, match="method"):
            EstimatorSpec.from_json({**obj, "method": "other"})


def test_estimator_spec_validation():
    with pytest.raises(ValueError):
        EstimatorSpec("", MomentEstimatorConfig())
    # a value that is not an estimator config names no estimator
    for config in (None, "moments", {"method": "moments"}, SourceProfile("uniform", 10.0, 5.0, 100.0)):
        with pytest.raises(ValueError, match="estimator config must be"):
            EstimatorSpec("x", config)


def test_noise_power_is_not_a_boolean():
    # float(True) == 1.0 used to give a spec with noise power 1
    with pytest.raises(ValueError):
        default_spec("rmse_vs_N", sigma_eps2=True)
    obj = default_spec("rmse_vs_N").to_json()
    obj["sigma_eps2"] = True
    with pytest.raises(ValueError):
        ExperimentSpec.from_json(obj)


def test_experiment_spec_validation():
    with pytest.raises(ValueError):
        default_spec("unknown_kind")
    with pytest.raises(ValueError):
        default_spec("rmse_vs_N", estimators=())
    with pytest.raises(ValueError):
        default_spec("rmse_vs_N", estimators=(MOMENTS_SYM, MOMENTS_SYM))
    with pytest.raises(ValueError):
        default_spec("rmse_vs_N", N_list=(100, 50))
    with pytest.raises(ValueError):
        default_spec("rmse_vs_N", sigma_list=(-1.0, 5.0))
    with pytest.raises(ValueError):
        default_spec("rmse_vs_N", trials=0)
    with pytest.raises(ValueError):
        default_spec("rmse_vs_N", master_seed=-1)
    with pytest.raises(ValueError):
        default_spec("rmse_vs_N", workers=0)
    # fractional snapshot counts are rejected, not truncated
    with pytest.raises(ValueError):
        default_spec("rmse_vs_N", N_list=(100.5, 1000.9))
    # booleans are not counts or lengths, although int(True) == 1
    for overrides in (
        {"trials": True},
        {"workers": True},
        {"master_seed": False},
        {"N_list": (True,)},
        {"sigma_list": (False, 5.0)},
    ):
        with pytest.raises(ValueError):
            default_spec("rmse_vs_N", **overrides)
    # JSON flags must be real booleans, not truthy strings
    for name in ("timestamp_header", "dump_trials"):
        obj = default_spec("rmse_vs_N").to_json()
        obj[name] = "no"
        with pytest.raises(ValueError):
            ExperimentSpec.from_json(obj)


@pytest.mark.parametrize("name", ["N_list", "sigma_list"])
def test_an_empty_sweep_is_refused_when_the_spec_is_built(name):
    # an empty sweep has no point to run: the bias scan would fail in max() and
    # an rmse run would write a table of its header alone
    with pytest.raises(ValueError, match=name):
        default_spec("asymptotic_bias_vs_sigma", **{name: ()})
    with pytest.raises(ValueError, match=name):
        ExperimentSpec.from_json({**default_spec("rmse_vs_N").to_json(), name: []})


@pytest.mark.parametrize("value", [None, 5])
def test_output_dir_must_be_a_string(value):
    # refused before the sweep runs, not when its CSVs are written
    with pytest.raises(ValueError, match="output_dir"):
        default_spec("rmse_vs_N", output_dir=value)
    with pytest.raises(ValueError, match="output_dir"):
        ExperimentSpec.from_json({**default_spec("rmse_vs_N").to_json(), "output_dir": value})


@pytest.mark.parametrize(
    "name, value",
    [
        ("profile", {"shape": "uniform", "z0": 10.0, "sigma_z": 5.0, "P": 100.0}),
        ("array", {"M": 7, "z_amb": 100.0}),
        ("estimators", ({"label": "moments-sym", "method": "moments"},)),
        ("estimators", (MOMENTS_SYM, MomentEstimatorConfig(D=2))),
    ],
    ids=["profile-dict", "array-dict", "estimator-dict", "estimator-config"],
)
def test_a_part_of_the_wrong_type_is_refused_when_the_spec_is_built(name, value):
    # each of these used to build and fail only at run time, on an attribute
    # or on hashing the array for the plan cache
    with pytest.raises(ValueError, match=name):
        default_spec("rmse_vs_N", **{name: value})


def test_spec_json_round_trip():
    spec = default_spec(
        "rmse_vs_N",
        N_list=(25, 50),
        trials=10,
        master_seed=3,
        output_dir="somewhere",
        timestamp_header=False,
        dump_trials=True,
        workers=2,
    )
    assert ExperimentSpec.from_json(spec.to_json()).to_json() == spec.to_json()
    assert ExperimentSpec.from_json(spec.to_json()) == spec
    assert ExperimentSpec.from_json(spec.to_json()) != dataclasses.replace(spec, array=make_uniform_array(7, 90.0))


def test_spec_json_keeps_an_ambiguity_the_wavenumbers_do_not_imply():
    sparse = ArrayConfig(2 * np.pi / 100 * np.array([0, 1, 3, 7]), ambiguity=100)
    spec = default_spec("rmse_vs_N", array=sparse)
    assert ExperimentSpec.from_json(json.loads(json.dumps(spec.to_json()))) == spec


@pytest.mark.parametrize(
    "value, text",
    [
        (None, ""),
        (True, "true"),
        (False, "false"),
        (np.bool_(True), "true"),
        (np.bool_(False), "false"),
        (0, "0"),
        (-7, "-7"),
        (10**20, "100000000000000000000"),
        (np.int64(-3), "-3"),
        (1.5, "1.5"),
        (0.1 + 0.2, "0.30000000000000004"),
        (1e-300, "1e-300"),
        (np.float64(0.1 + 0.2), "0.30000000000000004"),
        (np.float32(0.5), "0.5"),
        (math.nan, ""),
        (np.float64("nan"), ""),
        (math.inf, "inf"),
        (-math.inf, "-inf"),
        (np.float64(-np.inf), "-inf"),
        (-0.0, "-0.0"),
        (np.float64(-0.0), "-0.0"),
        ("moments-sym", "moments-sym"),
        ("a,b", '"a,b"'),
    ],
)
def test_format_cell(value, text):
    # the cell text csv writes for each kind of value a table holds
    buffer = io.StringIO()
    csv.writer(buffer).writerow([_format_cell(value), "end"])
    assert buffer.getvalue() == f"{text},end\r\n"


def test_select_refuses_a_name_that_is_not_a_column(tmp_path):
    spec = default_spec("asymptotic_bias_vs_sigma", sigma_list=(5.0,), output_dir=str(tmp_path))
    result = run_asymptotic_bias_vs_sigma(spec)
    assert len(result.select(parameter="z0")) == 4
    with pytest.raises(KeyError, match="paramter"):
        result.select(paramter="z0")


def test_a_row_without_a_header_column_is_refused(tmp_path):
    # every cell is the row's value for its column: a row that lacks one raises,
    # naming the column, rather than writing an empty cell
    spec = default_spec("spectrum_dump", output_dir=str(tmp_path), timestamp_header=False)
    table = ("partial", ("xi", "value"), [{"xi": 0.0, "value": 1.0}, {"xi": 1.0}])
    with pytest.raises(KeyError, match="value"):
        _write_result(spec, [], [table])


@pytest.mark.parametrize(
    "block, column",
    [
        ({"xi": np.zeros(3), "value": np.zeros(2)}, "value"),
        ({"xi": np.zeros(3), "value": np.zeros((3, 1))}, "value"),
        ({"xi": np.array(1.0), "value": 1.0}, "xi"),
    ],
    ids=["lengths-differ", "2-d", "0-d"],
)
def test_a_block_of_unequal_or_not_1d_arrays_is_refused(tmp_path, block, column):
    # a block is one row per array element: arrays of unequal length used to be
    # cut to the shortest, and a 2-d one written as rows of lists
    spec = default_spec("spectrum_dump", output_dir=str(tmp_path), timestamp_header=False)
    with pytest.raises(ValueError, match=f"column '{column}'"):
        _write_result(spec, [], [("blocks", ("xi", "value"), [block])])


_SPECIAL_FLOATS = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.1])
_FLOATS = st.one_of(_SPECIAL_FLOATS, st.floats())
_FLOAT32S = st.one_of(_SPECIAL_FLOATS, st.floats(width=32))
_INT64S = st.integers(-(2**63), 2**63 - 1)
# a comma, a quote, CR or LF make csv quote a field; the empty text is an empty field
_TEXT = st.text(alphabet='a ,"\r\n', max_size=4)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.integers(),
    _INT64S.map(np.int64),
    _FLOATS,
    _FLOATS.map(np.float64),
    _FLOAT32S.map(np.float32),  # str reads a float32 scalar by its own shortest digits: 0.1, not 0.10000000149011612
    _TEXT,
)


def _arrays(rows):
    def of(elements, dtype):
        return st.lists(elements, min_size=rows, max_size=rows).map(lambda values: np.array(values, dtype=dtype))

    return st.one_of(
        of(_FLOATS, np.float64),
        of(_FLOAT32S, np.float32),
        of(_INT64S, np.int64),
        of(st.booleans(), bool),
        of(_TEXT, str),
    )


@st.composite
def _tables(draw):
    """Column names and blocks of scalars, new arrays and arrays an earlier block or column holds."""
    columns = tuple(draw(st.lists(_TEXT, min_size=1, max_size=3, unique=True)))
    pool, blocks = {}, []  # the arrays drawn so far, by length
    for _ in range(draw(st.integers(0, 4))):
        rows = draw(st.integers(0, 3))
        arrays = pool.setdefault(rows, [])
        block = {}
        for column in columns:
            kind = draw(st.sampled_from(("scalar", "array", "shared")))
            if kind == "scalar":
                block[column] = draw(_SCALARS)
            elif kind == "shared" and arrays:
                block[column] = draw(st.sampled_from(arrays))
            else:
                arrays.append(draw(_arrays(rows)))
                block[column] = arrays[-1]
        blocks.append(block)
    return columns, blocks


def _csv_module_text(columns, blocks) -> str:
    """The reference: each block expanded into row lists and written by ``csv.writer``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(columns)
    for block in blocks:
        sizes = [value.size for value in block.values() if isinstance(value, np.ndarray)]
        rows = sizes[0] if sizes else 1
        cells = {c: v.tolist() if isinstance(v, np.ndarray) else [v] * rows for c, v in block.items()}
        writer.writerows([_format_cell(cells[column][row]) for column in columns] for row in range(rows))
    return buffer.getvalue()


@settings(max_examples=300, deadline=None)
@given(table=_tables(), timestamp=st.booleans(), fresh=st.booleans())
def test_written_bytes_are_those_of_the_csv_module(table, timestamp, fresh):
    columns, blocks = table
    expected = _csv_module_text(columns, blocks)
    if fresh:
        # a new copy of every array in every block, which only the writer refers to
        # once yielded: a freed array's id comes back, and must not bring back its cells
        blocks = ({c: v.copy() if isinstance(v, np.ndarray) else v for c, v in block.items()} for block in blocks)
    with tempfile.TemporaryDirectory() as out:
        spec = default_spec("spectrum_dump", output_dir=out, timestamp_header=timestamp)
        _write_result(spec, [], [("table", columns, blocks)])
        written = (Path(out) / "table.csv").read_bytes().decode("ascii")
    if timestamp:
        stamp, written = written.split("\n", 1)
        assert re.fullmatch(r"# generated \d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", stamp)
    assert written == expected


def test_wrap_height_error():
    assert wrap_height_error(60.0, 100.0) == -40.0
    assert wrap_height_error(-60.0, 100.0) == 40.0
    assert wrap_height_error(49.0, 100.0) == 49.0
    assert wrap_height_error(50.0, 100.0) == -50.0
    np.testing.assert_allclose(wrap_height_error(np.array([0.0, 99.0]), 100.0), [0.0, -1.0])


def test_height_errors_are_not_folded_without_an_ambiguity():
    from tomoments.experiments import _errors

    # heights on a non-uniform stack do not repeat, so an estimate at the far
    # edge of the searched interval is a large error, not a small one
    estimators = (EstimatorSpec("moments", MomentEstimatorConfig(z0_max=80.0)),)
    irregular = ArrayConfig(kz=np.array([0.0, 0.05, 0.17]))
    spec = default_spec("rmse_vs_N", array=irregular, estimators=estimators)
    assert spec.array.ambiguity is None
    assert _errors("z0", np.array([79.9]), 0.1, spec.array.ambiguity) == pytest.approx(79.8)
    uniform = default_spec("rmse_vs_N", estimators=estimators)
    assert _errors("z0", np.array([99.9]), 0.1, uniform.array.ambiguity) == pytest.approx(-0.2)


def test_spectrum_dump(tmp_path):
    spec = default_spec(
        "spectrum_dump", output_dir=str(tmp_path), timestamp_header=False
    )
    result = run_spectrum_dump(spec)
    assert set(result.files) == {
        "spectrum_densities",
        "spectrum_curves",
        "spectrum_measurements",
        "spectrum_interpolation",
    }

    curves = _read_csv(result.files["spectrum_curves"])
    names = {row["curve"] for row in curves}
    assert names == {"uniform", "gaussian", "parabola"}
    for name in names:
        at_zero = [row for row in curves if row["curve"] == name and float(row["xi"]) == 0.0]
        assert float(at_zero[0]["value"]) == pytest.approx(100.0, rel=1e-12)
    parabola = [row for row in curves if row["curve"] == "parabola"]
    for row in parabola[:: len(parabola) // 7]:
        xi = float(row["xi"])
        assert float(row["value"]) == pytest.approx(100.0 * (1.0 - 0.5 * (5.0 * xi) ** 2), rel=1e-9)

    densities = _read_csv(result.files["spectrum_densities"])
    for shape, atol in (("uniform", 0.02), ("gaussian", 1e-4)):
        rows = [row for row in densities if row["shape"] == shape]
        z = np.array([float(row["z"]) for row in rows])
        p = np.array([float(row["density"]) for row in rows])
        assert np.all(p >= 0.0)
        assert np.trapezoid(p, z) == pytest.approx(1.0, abs=atol)

    measurements = _read_csv(result.files["spectrum_measurements"])
    for row in measurements:
        offset = 10.0 if float(row["xi"]) == 0.0 else 0.0
        assert float(row["observed"]) == pytest.approx(float(row["spectrum"]) + offset, rel=1e-12)

    interpolation = _read_csv(result.files["spectrum_interpolation"])
    assert {row["estimator"] for row in interpolation} == {"moments-full", "moments-sym"}
    for row in interpolation:
        if float(row["xi"]) == 0.0:
            # the fitted polynomial equals P_hat at the origin
            assert float(row["model_spectrum"]) == pytest.approx(100.0, rel=0.02)
            assert float(row["true_spectrum"]) == pytest.approx(100.0, rel=1e-12)


def test_spectrum_dump_point_profile(tmp_path):
    spec = default_spec(
        "spectrum_dump",
        profile=SourceProfile("point", 10.0, 0.0, 100.0),
        output_dir=str(tmp_path),
        timestamp_header=False,
    )
    result = run_spectrum_dump(spec)
    curves = _read_csv(result.files["spectrum_curves"])
    assert {row["curve"] for row in curves} == {"point", "parabola"}
    assert _read_csv(result.files["spectrum_densities"]) == []


def test_asymptotic_bias(tmp_path):
    spec = default_spec(
        "asymptotic_bias_vs_sigma",
        sigma_list=(0.0, 5.0),
        estimators=(
            MOMENTS_SYM,
            EstimatorSpec("parametric-uniform", ParametricEstimatorConfig()),
        ),
        output_dir=str(tmp_path),
        timestamp_header=False,
    )
    result = run_asymptotic_bias_vs_sigma(spec)
    assert len(result.rows) == 2 * 2 * 4

    # order-4 symmetric fit truncates the uniform shape: small negative power
    # bias at sigma_z = 5, frozen from the exact-covariance fit
    row = result.select(estimator="moments-sym", sweep_value=5.0, parameter="P")[0]
    assert row["bias"] == pytest.approx(-0.40509, abs=2e-3)
    assert row["rmse"] == pytest.approx(abs(row["bias"]))
    assert row["rmse_normalized"] == pytest.approx(row["rmse"] / 100.0)
    row = result.select(estimator="moments-sym", sweep_value=5.0, parameter="sigma_z")[0]
    assert row["bias"] == pytest.approx(-0.16188, abs=2e-3)

    # matched parametric fit is exact along the whole sweep
    for row in result.select(estimator="parametric-uniform"):
        assert abs(row["bias"]) < 1e-3
        assert row["failures"] == 0

    # zero spread is fitted exactly by the moment model too
    for row in result.select(estimator="moments-sym", sweep_value=0.0):
        assert abs(row["bias"]) < 0.05

    interpolation = _read_csv(result.files["asymptotic_interpolation"])
    assert {row["estimator"] for row in interpolation} == {"moments-sym"}
    assert {float(row["sigma_z"]) for row in interpolation} == {0.0, 5.0}


def test_bias_rows_are_the_exact_fits(tmp_path):
    # one fit of the exact covariance per spread, so bias is its (wrapped)
    # error, rmse the error's magnitude and mean the fitted value, bit for bit
    spec = default_spec(
        "asymptotic_bias_vs_sigma",
        sigma_list=(0.0, 7.0, 20.0),
        output_dir=str(tmp_path),
        timestamp_header=False,
    )
    result = run_asymptotic_bias_vs_sigma(spec)
    assert len(result.rows) == 3 * 4 * 4
    for sigma in spec.sigma_list:
        profile = dataclasses.replace(spec.profile, sigma_z=sigma)
        R = true_covariance(profile, spec.array, spec.sigma_eps2)
        truths = (profile.z0, profile.sigma_z, profile.P, spec.sigma_eps2)
        for entry in spec.estimators:
            run = estimate if isinstance(entry.config, MomentEstimatorConfig) else estimate_parametric
            fit = run(R, entry.config, spec.array)
            fitted = (fit.z0_hat, fit.sigma_z_hat, fit.P_hat, fit.sigma_eps2_hat)
            for parameter, value, truth in zip(PARAM_NAMES, fitted, truths):
                (row,) = result.select(estimator=entry.label, sweep_value=sigma, parameter=parameter)
                error = value - truth
                if parameter == "z0":
                    error = float(wrap_height_error(error, 100.0))
                assert row["bias"] == error
                assert row["rmse"] == abs(error)
                assert row["mean"] == value
                assert (row["n_trials"], row["failures"]) == (1, 0)


def test_rmse_rows_recomputed_from_the_trial_dump(tmp_path, monkeypatch):
    # the result rows are the statistics of the dumped estimates, bit for bit
    # (repr floats round-trip), with one injected failed fit left out
    calls = []

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) == 4:  # trial 1 of N = 50, second moment estimator
            raise DegenerateCovarianceError("injected")
        return estimate(*args, **kwargs)

    monkeypatch.setattr("tomoments.experiments.estimate", flaky)
    full = EstimatorSpec("moments-full", MomentEstimatorConfig(D=4, symmetric=False))
    spec = default_spec(
        "rmse_vs_N",
        N_list=(50, 200),
        trials=4,
        estimators=(full, MOMENTS_SYM),
        output_dir=str(tmp_path),
        timestamp_header=False,
        dump_trials=True,
    )
    # one failure in four trials trips the 1% gate after the CSVs are written
    with pytest.raises(ExperimentError, match="'moments-sym' failed 1 of 4 trials at sweep value 50 "):
        run_rmse_vs_N(spec)
    dump = _read_csv(tmp_path / "rmse_vs_N_trials.csv")
    rows = _read_csv(tmp_path / "rmse_vs_N.csv")
    assert [(row["estimator"], row["sweep_value"], row["trial"]) for row in dump if row["failed"] == "true"] == [
        ("moments-sym", "50", "1")
    ]
    failed = next(row for row in dump if row["failed"] == "true")
    assert [failed[f"{name}_hat"] for name in PARAM_NAMES] == [""] * 4
    assert len(rows) == 2 * 2 * 4
    truths = {"z0": 10.0, "sigma_z": 5.0, "P": 100.0, "sigma_eps2": 10.0}
    for row in rows:
        hats = np.array(
            [
                float(trial[f"{row['parameter']}_hat"])
                for trial in dump
                if (trial["estimator"], trial["sweep_value"], trial["failed"])
                == (row["estimator"], row["sweep_value"], "false")
            ]
        )
        errors = hats - truths[row["parameter"]]
        if row["parameter"] == "z0":
            errors = wrap_height_error(errors, 100.0)
        bias = float(np.mean(errors))
        assert (int(row["n_trials"]), int(row["failures"])) == (hats.size, 4 - hats.size)
        assert float(row["rmse"]) == float(np.sqrt(np.mean(errors**2)))
        assert float(row["bias"]) == bias
        assert float(row["mean"]) == truths[row["parameter"]] + bias


def test_sigma_sweep_guards():
    wide = default_spec("asymptotic_bias_vs_sigma", sigma_list=(0.0, 40.0), trials=1)
    with pytest.raises(ValueError):
        run_asymptotic_bias_vs_sigma(wide)
    spec = default_spec(
        "asymptotic_bias_vs_sigma",
        profile=SourceProfile("point", 10.0, 0.0, 100.0),
        sigma_list=(0.0, 5.0),
    )
    with pytest.raises(ValueError):
        run_asymptotic_bias_vs_sigma(spec)
    with pytest.raises(ValueError):
        run_asymptotic_bias_vs_sigma(default_spec("rmse_vs_N"))


def test_rmse_vs_N_smoke(tmp_path):
    spec = default_spec(
        "rmse_vs_N",
        N_list=(25, 50),
        trials=3,
        estimators=(MOMENTS_SYM,),
        output_dir=str(tmp_path),
        timestamp_header=False,
        dump_trials=True,
    )
    result = run_rmse_vs_N(spec)
    assert len(result.rows) == 2 * 1 * 4
    for row in result.rows:
        assert row["n_trials"] == 3
        assert row["failures"] == 0
        assert np.isfinite(row["rmse"]) and row["rmse"] >= 0.0
        assert row["mean"] == pytest.approx(
            {"z0": 10.0, "sigma_z": 5.0, "P": 100.0, "sigma_eps2": 10.0}[row["parameter"]]
            + row["bias"]
        )
        assert row["crb"] > 0.0

    crb_25 = result.select(sweep_value=25, parameter="z0")[0]["crb"]
    crb_50 = result.select(sweep_value=50, parameter="z0")[0]["crb"]
    assert crb_50 == pytest.approx(crb_25 / np.sqrt(2.0), rel=1e-12)

    trials_rows = _read_csv(result.files["rmse_vs_N_trials"])
    assert len(trials_rows) == 2 * 3
    for row in trials_rows:
        assert row["failed"] == "false"
        assert np.isfinite(float(row["z0_hat"]))


def test_rmse_deterministic_bytes(tmp_path):
    outputs = []
    for name in ("a", "b"):
        spec = default_spec(
            "rmse_vs_N",
            N_list=(25,),
            trials=3,
            estimators=(MOMENTS_SYM,),
            output_dir=str(tmp_path / name),
            timestamp_header=False,
        )
        result = run_rmse_vs_N(spec)
        outputs.append(open(result.files["rmse_vs_N"], "rb").read())
    assert outputs[0] == outputs[1]
    assert b"#" not in outputs[0]


def test_rmse_workers_match_serial(tmp_path):
    rows = {}
    files = {}
    for workers in (1, 2):
        spec = default_spec(
            "rmse_vs_N",
            N_list=(25,),
            trials=4,
            estimators=(
                MOMENTS_SYM,
                EstimatorSpec("parametric-uniform", ParametricEstimatorConfig()),
            ),
            output_dir=str(tmp_path / f"w{workers}"),
            timestamp_header=False,
            dump_trials=True,
            workers=workers,
        )
        result = run_rmse_vs_N(spec)
        rows[workers] = result.rows
        files[workers] = {name: open(path, "rb").read() for name, path in result.files.items()}
    assert rows[1] == rows[2]
    assert set(files[1]) == {"rmse_vs_N", "rmse_vs_N_trials"}
    assert files[1] == files[2]


def test_pool_has_at_most_one_process_per_trial(tmp_path, monkeypatch):
    # a recording stand-in for the process pool, which starts no process:
    # each N opens a pool of min(workers, trials, CPUs) processes, where the
    # CPUs are os.process_cpu_count() if it exists, else os.cpu_count(), and
    # one trial or one CPU (or an unknown count) runs without a pool
    opened = []
    missing = object()

    class RecordingPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, function, iterable, chunksize=1):
            return map(function, iterable)

    monkeypatch.setattr("tomoments.experiments._process_pool", RecordingPool)
    for workers, trials, process_cpus, cpus, pools in (
        (64, 6, 8, 8, [6, 6]),
        (3, 6, 8, 8, [3, 3]),
        (64, 1, 8, 8, []),
        (5000, 12, 4, 8, [4, 4]),
        (5000, 12, missing, 5, [5, 5]),
        (5000, 12, missing, None, []),
        (5000, 12, 1, 8, []),
    ):
        if process_cpus is missing:
            monkeypatch.delattr(os, "process_cpu_count", raising=False)
        else:
            monkeypatch.setattr(os, "process_cpu_count", lambda: process_cpus, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        opened.clear()
        spec = default_spec(
            "rmse_vs_N",
            N_list=(25, 50),
            trials=trials,
            estimators=(MOMENTS_SYM,),
            output_dir=str(tmp_path / f"w{workers}-t{trials}-c{process_cpus}-{cpus}"),
            timestamp_header=False,
            workers=workers,
        )
        run_rmse_vs_N(spec)
        assert opened == pools, (workers, trials, process_cpus, cpus)


def test_rmse_seed_changes_results(tmp_path):
    values = {}
    for seed in (0, 1):
        spec = default_spec(
            "rmse_vs_N",
            N_list=(25,),
            trials=3,
            estimators=(MOMENTS_SYM,),
            master_seed=seed,
            output_dir=str(tmp_path / f"s{seed}"),
            timestamp_header=False,
        )
        values[seed] = run_rmse_vs_N(spec).select(parameter="z0")[0]["rmse"]
    assert values[0] != values[1]


def test_rmse_failure_guard(tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise DegenerateCovarianceError("boom")

    monkeypatch.setattr("tomoments.experiments.estimate", explode)
    spec = default_spec(
        "rmse_vs_N",
        N_list=(25,),
        trials=3,
        estimators=(MOMENTS_SYM,),
        output_dir=str(tmp_path),
        timestamp_header=False,
    )
    with pytest.raises(ExperimentError):
        run_rmse_vs_N(spec)


def test_bias_failure_guard(tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise DegenerateCovarianceError("boom")

    monkeypatch.setattr("tomoments.experiments.estimate", explode)
    spec = default_spec(
        "asymptotic_bias_vs_sigma",
        sigma_list=(5.0,),
        estimators=(MOMENTS_SYM,),
        output_dir=str(tmp_path),
        timestamp_header=False,
    )
    with pytest.raises(ExperimentError):
        run_asymptotic_bias_vs_sigma(spec)
    # the CSVs are written before the failure gate fires
    rows = _read_csv(tmp_path / "asymptotic_bias_vs_sigma.csv")
    assert [row["parameter"] for row in rows] == ["z0", "sigma_z", "P", "sigma_eps2"]
    for row in rows:
        assert row["estimator"] == "moments-sym"
        assert row["failures"] == "1"
        assert row["n_trials"] == "0"
        for column in ("rmse", "rmse_normalized", "bias", "mean"):
            assert row[column] == ""
    assert _read_csv(tmp_path / "asymptotic_interpolation.csv") == []


@pytest.mark.parametrize("kind", ["rmse_vs_N", "asymptotic_bias_vs_sigma"])
def test_unexpected_estimator_error_propagates(kind, tmp_path, monkeypatch):
    # only documented fit failures count as failed trials; anything else is a bug
    def explode(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("tomoments.experiments.estimate", explode)
    spec = default_spec(
        kind,
        N_list=(25,),
        sigma_list=(5.0,),
        trials=2,
        estimators=(MOMENTS_SYM,),
        output_dir=str(tmp_path),
        timestamp_header=False,
    )
    with pytest.raises(RuntimeError, match="boom") as raised:
        run_experiment(spec)
    assert not isinstance(raised.value, ExperimentError)


def test_height_period_needs_ambiguity():
    array = ArrayConfig(kz=np.array([0.0, 0.05, 0.17]))
    with pytest.raises(ValueError):
        spec = default_spec("rmse_vs_N", array=array, N_list=(25,), trials=1)
        run_rmse_vs_N(spec)


def test_spec_warns_of_inverse_sample_weighting_at_N_up_to_M():
    # a sample covariance of N <= M snapshots is singular or nearly so, and
    # its inverse weights the fit badly; the warning names N, M and the estimators
    identity = EstimatorSpec("moments-id", MomentEstimatorConfig(weighting="identity"))
    with pytest.warns(UserWarning, match=r"N = 4, 7 <= M = 7 .*\(moments-sym\)") as caught:
        default_spec("rmse_vs_N", N_list=(4, 7, 8), estimators=(identity, MOMENTS_SYM))
    assert "moments-id" not in str(caught[0].message)
    with pytest.warns(UserWarning, match=r"N = 3 <= M = 5 .*\(moments-full, moments-sym, parametric-uniform"):
        ExperimentSpec.from_json({**default_spec("rmse_vs_N").to_json(), "N_list": [3], "array": {"M": 5, "z_amb": 100.0}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        default_spec("rmse_vs_N")  # the reference spec: N from 25 on M = 7
        default_spec("rmse_vs_N", N_list=(8,))
        default_spec("rmse_vs_N", N_list=(2, 7), estimators=(identity,))
        default_spec("asymptotic_bias_vs_sigma", N_list=(2,))  # a bias scan draws no snapshots
        default_spec("spectrum_dump", N_list=(2,))


def test_small_N_warning_names_the_caller_outside_the_package(tmp_path, monkeypatch):
    # whichever constructor builds the spec, the warning points at the line
    # that called into the package, not at a package file
    small = {**default_spec("rmse_vs_N").to_json(), "N_list": [3], "array": {"M": 5, "z_amb": 100.0}}
    config = tmp_path / "small.json"
    config.write_text(json.dumps(small))

    def refuse(spec):
        raise RuntimeError("not run")

    monkeypatch.setattr("tomoments.cli.run_experiment", refuse)
    builds = {
        "ExperimentSpec": lambda: ExperimentSpec(**{**vars(default_spec("rmse_vs_N")), "N_list": (3,)}),
        "default_spec": lambda: default_spec("rmse_vs_N", N_list=(3,)),
        "from_json": lambda: ExperimentSpec.from_json(small),
        "cli.main": lambda: main(["rmse", "--config", str(config), "--out", str(tmp_path)]),
    }
    for name, build in builds.items():
        with pytest.warns(UserWarning, match="inverse-sample weighting") as caught:
            build()
        assert [Path(w.filename).name for w in caught] == [Path(__file__).name], name


def test_spec_refuses_an_estimator_its_array_cannot_run():
    # the estimator's own plan decides, when the spec is built, not after every trial failed
    coarse = EstimatorSpec("m", MomentEstimatorConfig(grid_points=10))
    with pytest.raises(ValueError, match="grid_points"):
        default_spec("rmse_vs_N", estimators=(coarse,))
    with pytest.raises(ValueError, match="not identifiable"):
        default_spec("rmse_vs_N", estimators=(EstimatorSpec("m", MomentEstimatorConfig(D=12)),))
    irregular = ArrayConfig(kz=np.array([0.0, 0.05, 0.17]))
    parametric = EstimatorSpec("p", ParametricEstimatorConfig())
    with pytest.raises(ValueError, match="z0_max"):
        default_spec("spectrum_dump", array=irregular, estimators=(parametric,))


def test_container_fields_have_a_named_cause():
    obj = default_spec("rmse_vs_N").to_json()
    for name, value, cause in (
        ("N_list", 100, "N_list must be a list"),
        ("sigma_list", 5.0, "sigma_list must be a list"),
        ("estimators", 5, "estimators must be a list"),
        ("estimators", [5], "estimator JSON must be an object"),
        ("array", 7, "array config must be an object"),
        ("array", {"kz": 0.5}, "kz must be a list"),
    ):
        with pytest.raises(ValueError, match=cause):
            ExperimentSpec.from_json({**obj, name: value})


def test_estimator_json_needs_a_string_label():
    entry = default_spec("rmse_vs_N").estimators[0].to_json()
    del entry["label"]
    with pytest.raises(ValueError, match="label"):
        EstimatorSpec.from_json(entry)
    with pytest.raises(ValueError, match="label"):
        EstimatorSpec.from_json({**entry, "label": 5})
    with pytest.raises(ValueError, match="label"):
        EstimatorSpec(None, MomentEstimatorConfig())


def test_run_experiment_dispatch(tmp_path):
    from tomoments.experiments import _RUNNERS, KINDS

    assert set(_RUNNERS) == set(KINDS)
    spec = default_spec("spectrum_dump", output_dir=str(tmp_path), timestamp_header=False)
    assert set(run_experiment(spec).files) == set(run_spectrum_dump(spec).files)


def test_timestamp_header_present(tmp_path):
    spec = default_spec("spectrum_dump", output_dir=str(tmp_path), timestamp_header=True)
    result = run_spectrum_dump(spec)
    first = open(result.files["spectrum_curves"], "rb").read().splitlines()[0]
    assert first.startswith(b"# generated ")
