import importlib.util
import json
import math
from pathlib import Path

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


def _run_all():
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_all.py"
    spec = importlib.util.spec_from_file_location("run_all", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
