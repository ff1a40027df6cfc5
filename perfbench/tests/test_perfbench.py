"""Self-tests of the benchmark: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import contextlib
import csv
import importlib
import io
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import calibrate, check, workloads
from perfbench.layers import LAYER_METRICS
from perfbench.measure import ROOT, _variant_mean, import_program, measure
from perfbench.spans import TARGETS, Recorder, self_times

import_program()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_workload_runs_at_tiny_size(workload, tmp_path):
    summary = measure(workload, seed=0, seconds=0.0, out_dir=tmp_path, traced=False, tiny=True)
    assert summary["problems"] == []
    assert summary["attempted"] > 0 and summary["failed"] == 0
    assert summary["wall_s"] > 0.0 and summary["peak_rss_mb"] > 0.0


def test_traced_tiny_run_reports_every_layer_metric(tmp_path):
    summary = measure("mc-reference", seed=1, seconds=0.0, out_dir=tmp_path, traced=True, tiny=True)
    layers = summary["layers"]
    assert list(layers) == list(LAYER_METRICS)
    assert layers["moments.fit_count"] == layers["parametric.fit_count"] > 0
    # the golden-section bracket and tolerance are fixed, so this count is exact
    assert layers["fitting.point_terms_per_fit.moments"] == layers["fitting.solve_per_fit"] - 1
    assert 0.0 < layers["sampling.share"] < 1.0
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_self_time_on_synthetic_nested_spans():
    spans = [
        ["root", 0.0, 10.0, -1, 0, None, None],
        ["a", 1.0, 4.0, 0, 0, None, None],
        ["a.child", 2.0, 3.0, 1, 0, None, None],
        ["b", 3.0, 6.0, 0, 0, None, None],  # overlaps a: the union counts once
        ["c", 9.0, 12.0, 0, 0, None, None],  # runs past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 1.0, 3.0, 3.0])


def _reference_text(entry: dict) -> str:
    assert entry["stride"] == 1
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(entry["header"])
    writer.writerows(entry["sample"])
    return buffer.getvalue()


def test_output_check_rejects_a_perturbed_csv():
    reference = check.load_reference("mc-reference")
    entry = reference["0"]["rmse_vs_N.csv"]
    text = _reference_text(entry)
    tol = check.tolerance()
    assert check.compare(text, entry, tol) == []

    rows = check.parse(text)
    rmse = rows[0].index("rmse")
    failures = rows[0].index("failures")
    perturbed = [list(r) for r in rows]
    perturbed[1][rmse] = repr(float(rows[1][rmse]) * 1.05 + 0.05)
    miscounted = [list(r) for r in rows]
    miscounted[2][failures] = "1"
    for bad in (perturbed, miscounted, rows[:-1]):
        buffer = io.StringIO()
        csv.writer(buffer).writerows(bad)
        assert check.compare(buffer.getvalue(), entry, tol) != []


def test_check_run_reads_the_outputs_left_on_disk(tmp_path):
    entry = check.load_reference("mc-reference")["0"]["rmse_vs_N.csv"]
    text = _reference_text(entry)
    (tmp_path / "rmse_vs_N.csv").write_text(text)
    assert check.check_run("mc-reference", {"0": str(tmp_path)}, ["rmse_vs_N.csv"]) == []
    (tmp_path / "rmse_vs_N.csv").write_text(text.replace(",rmse,", ",rmse_changed,", 1))
    assert check.check_run("mc-reference", {"0": str(tmp_path)}, ["rmse_vs_N.csv"]) != []
    assert check.check_run("mc-reference", {"0": str(tmp_path / "none")}, ["rmse_vs_N.csv"]) != []


def test_variant_mean_does_not_depend_on_the_mix_of_variants():
    cheap = [{"variant": 0, "wall_s": w} for w in (1.0, 1.1, 0.9)]
    dear = [{"variant": 1, "wall_s": w} for w in (3.0, 3.3, 2.7)]
    wall = lambda r: r["wall_s"]  # noqa: E731
    assert _variant_mean(cheap + dear, wall) == pytest.approx(2.0)
    assert _variant_mean(cheap + dear[:1], wall) == pytest.approx(2.0)


def test_scaled_times_use_the_calibration_around_each_sweep(tmp_path):
    summary = measure("mc-moments", seed=0, seconds=0.0, out_dir=tmp_path, traced=False, tiny=True)
    assert len(summary["calibrations"]) == len(summary["walls"]) > 0
    by_variant: dict = {}
    for variant, wall, calibration in zip(summary["sequence"], summary["walls"], summary["calibrations"]):
        assert calibration > 0.0
        by_variant.setdefault(variant, []).append(wall * calibrate.REFERENCE_S / calibration)
    expected = statistics.fmean(statistics.fmean(v) for v in by_variant.values())
    assert summary["wall_s"] == pytest.approx(expected)


def test_outputs_do_not_depend_on_workers(tmp_path):
    from tomoments import cli

    texts = []
    for workers in (1, 2):
        sweep = workloads.build("mc-reference", 0, tmp_path / f"workers{workers}", tiny=True)
        spec = json.loads(Path(sweep.argv[2]).read_text())
        spec["trials"] = 4  # enough to hand each worker a share
        Path(sweep.argv[2]).write_text(json.dumps(spec))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([*sweep.argv, "--workers", str(workers)]) == 0
        texts.append(sweep.read())
    assert texts[0] == texts[1]


def test_wrappers_restore_every_patched_attribute():
    originals = [getattr(importlib.import_module(m), a) for m, a, _, _ in TARGETS]
    recorder = Recorder()
    recorder.install()
    try:
        for (module, attribute, _, _), original in zip(TARGETS, originals):
            assert getattr(importlib.import_module(module), attribute) is not original
    finally:
        recorder.restore()
    for (module, attribute, _, _), original in zip(TARGETS, originals):
        assert getattr(importlib.import_module(module), attribute) is original


@pytest.mark.parametrize("truth", ["uniform", "gaussian"])
def test_generated_estimators_are_the_package_defaults(truth):
    from tomoments import default_estimators

    assert workloads._estimators(truth) == [e.to_json() for e in default_estimators(truth)]


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc-reference", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
