"""What the specs, configs and library entry points accept as a number, a count or a flag."""

import json
import math
from pathlib import PurePosixPath

import numpy as np
import pytest

from tomoments import (
    ArrayConfig,
    EstimatorSpec,
    ExperimentSpec,
    MomentEstimatorConfig,
    ParametricEstimatorConfig,
    SourceProfile,
    central_moment,
    crb_stddev,
    default_estimators,
    default_spec,
    fisher_information,
    make_uniform_array,
    sample_snapshots,
    true_covariance,
)
from tomoments._fields import count, real

ARRAY = make_uniform_array(7, 100.0)
PROFILE = SourceProfile("uniform", 10.0, 5.0, 100.0)
R = true_covariance(PROFILE, ARRAY, 10.0)
FIM = fisher_information(PROFILE, ARRAY, 10.0, 1)
SPEC_JSON = default_spec("rmse_vs_N").to_json()


def _spec_with(**parts):
    """``ExperimentSpec.from_json`` of the default rmse spec with ``parts`` in place of its own."""
    return ExperimentSpec.from_json({**SPEC_JSON, **parts})


# each entry point with the field it reads; True marks a count
ENTRY_POINTS = {
    "fisher_information N": (lambda v: fisher_information(PROFILE, ARRAY, 10.0, v), True),
    "sample_snapshots N": (lambda v: sample_snapshots(R, v, 0), True),
    "central_moment d": (lambda v: central_moment(PROFILE, v), True),
    "MomentEstimatorConfig D": (lambda v: MomentEstimatorConfig(D=v), True),
    "make_uniform_array M": (lambda v: make_uniform_array(v, 100.0), True),
    "ArrayConfig.from_json M": (lambda v: ArrayConfig.from_json({"M": v, "z_amb": 100.0}), True),
    "ArrayConfig.from_json kz": (lambda v: ArrayConfig.from_json({"kz": [0.0, v]}), False),
    "trials": (lambda v: default_spec("rmse_vs_N", trials=v), True),
    # a parametric fit runs on two acquisitions, a moment fit does not
    "spec array.M": (
        lambda v: _spec_with(array={"M": v, "z_amb": 100.0}, estimators=[{"label": "p", "method": "parametric"}]),
        True,
    ),
    "crb_stddev n_scale": (lambda v: crb_stddev(FIM, n_scale=v), False),
    "SourceProfile z0": (lambda v: SourceProfile("uniform", v, 5.0, 100.0), False),
    "make_uniform_array z_amb": (lambda v: make_uniform_array(7, v), False),
    "refine_tol": (lambda v: MomentEstimatorConfig(refine_tol=v), False),
    "spec profile.z0": (lambda v: _spec_with(profile={**PROFILE.to_json(), "z0": v}), False),
}
NOT_NUMBERS = (True, np.True_, "1", math.inf, math.nan)


@pytest.mark.parametrize(
    "entry, value",
    [
        (entry, value)
        for entry, (_, is_count) in ENTRY_POINTS.items()
        for value in NOT_NUMBERS + ((2.5,) if is_count else ())
    ],
    ids=repr,
)
def test_entry_points_refuse_what_is_not_a_number(entry, value):
    call, _ = ENTRY_POINTS[entry]
    with pytest.raises(ValueError):
        call(value)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("value", [2, 2.0, np.int64(2), np.float64(2.0)], ids=repr)
def test_entry_points_accept_numbers_and_integral_floats(entry, value):
    call, _ = ENTRY_POINTS[entry]
    call(value)


def test_refusals_name_the_field():
    with pytest.raises(ValueError, match="trials"):
        default_spec("rmse_vs_N", trials=math.inf)
    with pytest.raises(ValueError, match="sigma_z"):
        _spec_with(profile={**PROFILE.to_json(), "sigma_z": "0.5"})
    with pytest.raises(ValueError, match="n_scale"):
        crb_stddev(FIM, n_scale=10**400)
    with pytest.raises(ValueError, match=r"D must be an integer in \[2, 12\], got 13"):
        MomentEstimatorConfig(D=13)


def test_master_seed_is_not_rounded():
    # a float round trip would change every trial's seed
    assert default_spec("rmse_vs_N", master_seed=2**63 + 1).master_seed == 2**63 + 1


def test_counts_keep_their_exact_value():
    assert count(np.uint64(2**64 - 1), "seed") == 2**64 - 1
    assert type(default_spec("rmse_vs_N", trials=100.0).trials) is int
    assert type(real(np.float32(0.5), "x")) is float


def test_from_json_does_not_coerce():
    # int(7.5) used to build M = 7, float(True) a length of 1.0 m
    with pytest.raises(ValueError, match="M"):
        ArrayConfig.from_json({"M": 7.5, "z_amb": 100})
    for bad in (True, "0.5"):
        with pytest.raises(ValueError, match="sigma_z"):
            _spec_with(profile={**PROFILE.to_json(), "sigma_z": bad})
    # str() used to turn any object that prints as a shape name into that shape
    obj = {**PROFILE.to_json(), "shape": PurePosixPath("uniform")}
    with pytest.raises(ValueError, match="shape"):
        SourceProfile.from_json(obj)
    spec = {**default_spec("rmse_vs_N").to_json(), "kind": PurePosixPath("rmse_vs_N")}
    with pytest.raises(ValueError, match="kind"):
        ExperimentSpec.from_json(spec)


@pytest.mark.parametrize(
    "read, key",
    [
        (lambda: ExperimentSpec.from_json({**default_spec("rmse_vs_N").to_json(), "trails": 3}), "trails"),
        (lambda: EstimatorSpec.from_json({**default_estimators()[1].to_json(), "symetric": False}), "symetric"),
        (lambda: SourceProfile.from_json({**PROFILE.to_json(), "sigmaz": 5.0}), "sigmaz"),
        (lambda: _spec_with(profile={**PROFILE.to_json(), "sigmaz": 5.0}), "sigmaz"),
        (lambda: MomentEstimatorConfig.from_json({"method": "moments", "label": "x"}), "label"),
        (lambda: ArrayConfig.from_json({"M": 7, "z_amb": 100.0, "kz": [0.0, 1.0]}), "kz"),
        (lambda: ArrayConfig.from_json({"kz": [0.0, 1.0], "ambiguty": 5.0}), "ambiguty"),
        (lambda: MomentEstimatorConfig.from_json({"grid_points": 128}), "grid_points"),
        (lambda: ParametricEstimatorConfig.from_json({"z0_grid": 96}), "z0_grid"),
        (lambda: ParametricEstimatorConfig.from_json({"sigma_grid": {"points": 32}}), "sigma_grid"),
    ],
    ids=[
        "spec", "estimator", "profile", "spec-profile", "config-label", "array-mixed", "array-other",
        "grid_points", "z0_grid", "sigma_grid",
    ],
)
def test_from_json_refuses_a_key_that_names_no_field(read, key):
    # a misspelled key used to be ignored, so its field kept its default; the
    # grid keys name fields the search grids no longer have
    with pytest.raises(ValueError, match=repr(key)):
        read()


@pytest.mark.parametrize(
    "config, method",
    [(MomentEstimatorConfig, "parametric"), (ParametricEstimatorConfig, "moments"), (MomentEstimatorConfig, "moment")],
)
def test_a_config_refuses_a_method_that_is_not_its_own(config, method):
    # a config read on its own used to build itself whatever estimator its
    # "method" named; its own method is still read
    with pytest.raises(ValueError, match="'method'"):
        config.from_json({"method": method})
    assert config.from_json(config().to_json()) == config()


def test_from_json_names_a_missing_field():
    obj = PROFILE.to_json()
    del obj["P"]
    with pytest.raises(ValueError, match="'P'"):
        SourceProfile.from_json(obj)
    spec = {**default_spec("rmse_vs_N").to_json(), "profile": [10.0, 5.0]}
    with pytest.raises(ValueError, match="SourceProfile"):
        ExperimentSpec.from_json(spec)


# json.dumps(default_spec(kind).to_json()), frozen from the field-by-field writer it replaced
_DEFAULT_SPEC_JSON = (
    '{"kind": "%s", "profile": {"shape": "uniform", "z0": 10.0, "sigma_z": 5.0, "P": 100.0}, '
    '"array": {"M": 7, "z_amb": 100.0}, "sigma_eps2": 10.0, "estimators": ['
    '{"label": "moments-full", "method": "moments", "D": 4, "symmetric": false, "weighting": "inverse_sample"}, '
    '{"label": "moments-sym", "method": "moments", "D": 4, "symmetric": true, "weighting": "inverse_sample"}, '
    '{"label": "parametric-uniform", "method": "parametric", "assumed_shape": "uniform", '
    '"weighting": "inverse_sample"}, '
    '{"label": "parametric-gaussian", "method": "parametric", "assumed_shape": "gaussian", '
    '"weighting": "inverse_sample"}], '
    '"N_list": [25, 50, 100, 250, 500, 1000, 2500, 5000, 10000], "sigma_list": ['
    + ", ".join(f"{s}.0" for s in range(31))
    + '], "trials": 5000, "master_seed": 0, "output_dir": "out", "timestamp_header": true, '
    '"dump_trials": false, "workers": 1}'
)


@pytest.mark.parametrize("kind", ["spectrum_dump", "rmse_vs_N", "asymptotic_bias_vs_sigma"])
def test_default_spec_json_text_is_unchanged(kind):
    assert json.dumps(default_spec(kind).to_json()) == _DEFAULT_SPEC_JSON % kind
