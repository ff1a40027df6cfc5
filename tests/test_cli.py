import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from tomoments import cli, default_spec
from tomoments.cli import main


def test_spectrum_command(tmp_path, capsys):
    code = main(["spectrum", "--out", str(tmp_path), "--no-timestamp"])
    assert code == 0
    printed = capsys.readouterr().out
    for name in (
        "spectrum_densities",
        "spectrum_curves",
        "spectrum_measurements",
        "spectrum_interpolation",
    ):
        path = tmp_path / f"{name}.csv"
        assert path.exists()
        assert str(path) in printed


def test_rmse_command_with_config(tmp_path, capsys):
    spec = default_spec(
        "rmse_vs_N",
        N_list=(25, 50),
        trials=2,
        estimators=default_spec("rmse_vs_N").estimators[1:2],
    )
    config_path = tmp_path / "spec.json"
    config_path.write_text(json.dumps(spec.to_json()))
    code = main(
        [
            "rmse",
            "--config",
            str(config_path),
            "--out",
            str(tmp_path / "out"),
            "--no-timestamp",
            "--dump-trials",
        ]
    )
    assert code == 0
    capsys.readouterr()
    assert (tmp_path / "out" / "rmse_vs_N.csv").exists()
    assert (tmp_path / "out" / "rmse_vs_N_trials.csv").exists()


def test_kind_mismatch_is_an_error(tmp_path, capsys):
    spec = default_spec("rmse_vs_N", N_list=(25,), trials=2)
    config_path = tmp_path / "spec.json"
    config_path.write_text(json.dumps(spec.to_json()))
    code = main(["bias", "--config", str(config_path), "--out", str(tmp_path)])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "does not match" in err["message"]


def test_trials_flag_beats_fast(tmp_path, capsys):
    spec = default_spec("rmse_vs_N", N_list=(25,), estimators=default_spec("rmse_vs_N").estimators[1:2])
    config_path = tmp_path / "spec.json"
    config_path.write_text(json.dumps(spec.to_json()))
    code = main(
        [
            "rmse",
            "--config",
            str(config_path),
            "--fast",
            "--trials",
            "2",
            "--out",
            str(tmp_path / "deep"),
            "--no-timestamp",
        ]
    )
    assert code == 0
    capsys.readouterr()
    lines = (tmp_path / "deep" / "rmse_vs_N.csv").read_text().splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert row["n_trials"] == "2"
    assert row["failures"] == "0"


def test_deterministic_across_invocations(tmp_path, capsys):
    spec = default_spec(
        "rmse_vs_N",
        N_list=(25,),
        trials=2,
        estimators=default_spec("rmse_vs_N").estimators[1:2],
    )
    config_path = tmp_path / "spec.json"
    config_path.write_text(json.dumps(spec.to_json()))
    outputs = []
    for name in ("a", "b"):
        code = main(
            [
                "rmse",
                "--config",
                str(config_path),
                "--seed",
                "5",
                "--out",
                str(tmp_path / name),
                "--no-timestamp",
            ]
        )
        assert code == 0
        capsys.readouterr()
        outputs.append((tmp_path / name / "rmse_vs_N.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_missing_config_file_is_an_error(tmp_path, capsys):
    code = main(["rmse", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"


def test_non_finite_count_is_a_named_error(tmp_path, capsys):
    # json parses Infinity; int(inf) used to surface as an OverflowError
    obj = default_spec("rmse_vs_N").to_json()
    obj["trials"] = math.inf
    config_path = tmp_path / "spec.json"
    config_path.write_text(json.dumps(obj))
    assert "Infinity" in config_path.read_text()
    code = main(["rmse", "--config", str(config_path), "--out", str(tmp_path)])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "trials" in err["message"]


def test_estimator_its_array_cannot_run_is_refused_before_any_trial(tmp_path, capsys):
    # D = 12 on 7 acquisitions would fail every trial, then report only the failure count
    obj = default_spec("rmse_vs_N", N_list=(25,), trials=3).to_json()
    obj["estimators"] = [{"label": "m", "method": "moments", "D": 12}]
    config_path = tmp_path / "spec.json"
    config_path.write_text(json.dumps(obj))
    assert main(["rmse", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "not identifiable" in err["message"]
    assert not list(tmp_path.rglob("*.csv"))


def test_config_that_is_not_an_object_is_a_named_error(tmp_path, capsys):
    config_path = tmp_path / "spec.json"
    config_path.write_text(json.dumps([default_spec("rmse_vs_N").to_json()]))
    assert main(["rmse", "--config", str(config_path), "--out", str(tmp_path)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "JSON object" in err["message"]


RUN_ALL = Path(__file__).resolve().parents[1] / "scripts" / "run_all.py"
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _run_all():
    spec = importlib.util.spec_from_file_location("run_all", RUN_ALL)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.dict(os.environ):  # the script's BLAS settings stay out of this process
        spec.loader.exec_module(module)
    return module


# loads run_all.py without running main and prints the BLAS settings seen when numpy is first imported
_BLAS_PROBE = """
import os, runpy, sys

seen = []

class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append([os.environ.get(var) for var in sys.argv[2:]])

sys.meta_path.insert(0, Probe())
runpy.run_path(sys.argv[1])
print(seen[0])
"""


@pytest.mark.parametrize("preset", [None, "2"])
def test_run_all_pins_blas_threads_unless_set(preset):
    env = {name: value for name, value in os.environ.items() if name not in BLAS_THREADS}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    probe = subprocess.run(
        [sys.executable, "-c", _BLAS_PROBE, str(RUN_ALL), *BLAS_THREADS],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert probe.stdout.strip() == str([preset or "1", "1", "1"])


def test_bench_pairs_gain_rule():
    # wins count strict improvements in the metric's direction, ties for
    # neither side; a gain needs 9 of 10 wins and a median gap above the
    # parent's interquartile range, taken with perfbench's spread (the
    # exclusive quartile method); the bound caps how much worse a median is
    spec = importlib.util.spec_from_file_location("bench_pairs", RUN_ALL.parent / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    lower, higher = {"better": "lower", "bound": 0.2}, {"better": "higher", "bound": 0.2}
    parent = [10.0, 11.0, 12.0, 13.0, 14.0, 10.0, 11.0, 12.0, 13.0, 14.0]
    row = bench_pairs.summary(lower, parent, [p - 5.0 for p in parent])
    assert row["parent"] == [10.75, 12.0, 13.25]
    assert (row["wins"], row["gain"], row["within_bound"]) == (10, True, True)
    assert bench_pairs.summary(lower, parent, [p - 0.5 for p in parent])["gain"] is False
    # a 2.2 gap clears the inclusive IQR of 2 but not the exclusive one of 2.5
    assert bench_pairs.summary(lower, parent, [p - 2.2 for p in parent])["gain"] is False
    tied = [p - 5.0 for p in parent[:9]] + [parent[9]]
    assert bench_pairs.summary(lower, parent, tied)["wins"] == 9
    assert bench_pairs.summary(lower, parent, tied)["gain"] is True
    assert bench_pairs.summary(lower, parent, [p - 5.0 for p in parent[:8]] + parent[8:])["gain"] is False
    assert bench_pairs.summary(higher, parent, [p - 5.0 for p in parent])["wins"] == 0
    slower = bench_pairs.summary(lower, parent, [p * 1.1 for p in parent])
    assert (slower["worse"], slower["within_bound"]) == (pytest.approx(0.1), True)
    assert bench_pairs.summary(lower, parent, [p * 1.25 for p in parent])["within_bound"] is False
    fewer = bench_pairs.summary(higher, parent, [p * 0.75 for p in parent])
    assert (fewer["worse"], fewer["within_bound"]) == (pytest.approx(0.25), False)



def test_bench_pairs_status():
    # exceeded: the median is worse by more than the bound; unresolved: within
    # it, but the parent's IQR share is wider than the bound and the change does
    # not read better than the parent in every run; within: otherwise
    spec = importlib.util.spec_from_file_location("bench_pairs", RUN_ALL.parent / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    lower, higher = {"better": "lower", "bound": 0.05}, {"better": "higher", "bound": 0.05}
    steady = [10.0, 10.1, 10.2, 10.0, 10.1, 10.2, 10.0, 10.1, 10.2, 10.1]
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 8.0, 12.0, 9.0, 11.0, 10.0]  # IQR share 0.3

    def status(metric, parent, change):
        return bench_pairs.summary(metric, parent, change)["status"]

    assert status(lower, steady, [v * 1.02 for v in steady]) == "within"
    assert status(lower, steady, [v * 1.1 for v in steady]) == "exceeded"
    assert status(higher, steady, [v * 0.9 for v in steady]) == "exceeded"
    assert status(lower, noisy, [v * 1.1 for v in noisy]) == "exceeded"
    assert status(lower, noisy, [v * 1.02 for v in noisy]) == "unresolved"
    # better in every pair but not than every parent run: still unresolved
    assert status(lower, noisy, [v * 0.98 for v in noisy]) == "unresolved"
    assert status(lower, noisy, [v - 5.0 for v in noisy]) == "within"
    assert status(higher, noisy, [v + 5.0 for v in noisy]) == "within"
    assert status(higher, noisy, [v - 5.0 for v in noisy]) == "exceeded"
    assert status(higher, noisy, [v + 0.1 for v in noisy]) == "unresolved"


def test_run_all_passes_its_flags_to_each_subcommand(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "main", lambda argv: calls.append(argv) or 0)
    argv = ["--out", str(tmp_path), "--seed", "3", "--workers", "2", "--fast", "--no-timestamp"]
    assert _run_all().main(argv) == 0
    flags = ["--seed", "3", "--workers", "2", "--fast", "--no-timestamp"]
    assert calls == [[command, "--out", str(tmp_path / command), *flags] for command in ("spectrum", "bias", "rmse")]
    assert _run_all().main(["--out", str(tmp_path)]) == 0
    assert calls[3] == ["spectrum", "--out", str(tmp_path / "spectrum"), "--seed", "0", "--workers", "1"]


def test_run_all_stops_at_the_first_failure(tmp_path, monkeypatch, capsys):
    codes = iter([0, 3, 0])
    calls = []
    monkeypatch.setattr(cli, "main", lambda argv: calls.append(argv[0]) or next(codes))
    assert _run_all().main(["--out", str(tmp_path)]) == 3
    assert calls == ["spectrum", "bias"]


# imports the package and the CLI, runs one parametric fit, builds the default
# rmse spec, then runs a tiny serial rmse sweep, a short bias scan and the
# spectrum dump through the CLI, and prints which guarded modules each step left loaded
_START_PROBE = """
import json, sys, tempfile
from pathlib import Path

GUARDED = ("scipy", "numpy.ma", "multiprocessing", "concurrent")

def loaded():
    return sorted(name for name in sys.modules if any(name == g or name.startswith(g + ".") for g in GUARDED))

steps = {}
import tomoments, tomoments.cli
steps["import"] = loaded()

from tomoments import SourceProfile, estimate_parametric, make_uniform_array, true_covariance
from tomoments import ParametricEstimatorConfig, default_spec
array = make_uniform_array(7, 100.0)
R = true_covariance(SourceProfile("uniform", 10.0, 5.0, 100.0), array, 10.0)
estimate_parametric(R, ParametricEstimatorConfig(), array)
steps["estimate_parametric"] = loaded()

spec = default_spec("rmse_vs_N", N_list=(50,))
steps["spec"] = loaded()

def run(command, spec, *flags):
    with tempfile.TemporaryDirectory() as out:
        config = Path(out) / "spec.json"
        config.write_text(json.dumps(spec.to_json()))
        code = tomoments.cli.main([command, "--config", str(config), "--out", out, "--no-timestamp", *flags])
    return loaded() if code == 0 else f"exit code {code}"

steps["rmse"] = run("rmse", spec, "--fast", "--trials", "2", "--workers", "1")
steps["bias"] = run("bias", default_spec("asymptotic_bias_vs_sigma", sigma_list=(0.0, 5.0)))
steps["spectrum"] = run("spectrum", default_spec("spectrum_dump"))
print(json.dumps(steps))
"""


def test_runtime_does_not_load_scipy():
    # scipy is a test dependency only (pyproject.toml): the oracles use it.
    # numpy.ma (which np.unique without return_* flags imports) and the
    # process pool's multiprocessing and concurrent.futures serve no serial
    # run: each cost about 16 ms of every start (2-vCPU x86 VM, Python 3.11, numpy 2.4)
    probe = subprocess.run(
        [sys.executable, "-c", _START_PROBE], capture_output=True, text=True, check=True
    )
    steps = json.loads(probe.stdout.strip().splitlines()[-1])
    assert steps == {step: [] for step in ("import", "estimate_parametric", "spec", "rmse", "bias", "spectrum")}
