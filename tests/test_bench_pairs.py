import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_medians_take_each_sides_median_per_layer(bench_pairs):
    # three synthetic traced runs per side: each row holds the metric's
    # median over its side's runs, in the order of the metric list
    metrics = [{"name": "fitting.golden_ms"}, {"name": "moments.refine_share"}]
    parent = [
        {"fitting.golden_ms": 30.0, "moments.refine_share": 0.6, "unlisted": 1.0},
        {"fitting.golden_ms": 10.0, "moments.refine_share": 0.7},
        {"fitting.golden_ms": 20.0, "moments.refine_share": 0.5},
    ]
    change = [
        {"fitting.golden_ms": 8.0, "moments.refine_share": 0.2},
        {"fitting.golden_ms": 9.0, "moments.refine_share": 0.4},
        {"fitting.golden_ms": 7.0, "moments.refine_share": 0.3},
    ]
    assert bench_pairs.trace_medians(metrics, parent, change) == [
        ("fitting.golden_ms", 20.0, 8.0),
        ("moments.refine_share", 0.6, 0.3),
    ]
    # an even number of runs takes the mean of the middle two
    assert bench_pairs.trace_medians(metrics[:1], parent[:2], change[:2]) == [("fitting.golden_ms", 20.0, 8.5)]


def test_alternating_runs_put_each_side_first_in_turn(bench_pairs):
    order = []

    def run(checkout, seed):
        order.append((checkout, seed))
        return {"wall_s": float(seed)}

    results = bench_pairs.alternating({"parent": "P", "change": "C"}, [11, 12, 13], run, ["wall_s"])
    assert order == [("P", 11), ("C", 11), ("C", 12), ("P", 12), ("P", 13), ("C", 13)]
    assert results == {side: [{"wall_s": 11.0}, {"wall_s": 12.0}, {"wall_s": 13.0}] for side in ("parent", "change")}


def test_run_once_adds_the_runs_page_faults_and_system_cpu(bench_pairs, monkeypatch, tmp_path):
    # a stand-in for perfbench/run.py that touches 16 MB in a real child
    # process: the run's counts are the getrusage(RUSAGE_CHILDREN) deltas
    # around it, at least one minor fault per 4 kB page it touched
    script = (
        "import json; block = bytearray(16 << 20); block[::4096] = b'x' * len(block[::4096]); "
        "print(json.dumps({'correct': True, 'failed': 0, 'metrics': {'wall_s': {'value': 0.5}}}))"
    )
    real_run = subprocess.run
    monkeypatch.setattr(
        bench_pairs.subprocess, "run", lambda argv, **kwargs: real_run([sys.executable, "-c", script], **kwargs)
    )
    values = bench_pairs.run_once(tmp_path, "mc-moments", 1, 1.0)
    assert set(values) == {"wall_s", "minflt", "stime_s"} and values["wall_s"] == 0.5
    assert values["minflt"] >= (16 << 20) // 4096
    assert values["stime_s"] >= 0.0


def test_json_stores_each_runs_counts_and_keeps_other_keys(bench_pairs, monkeypatch, tmp_path, capsys):
    # with --json the counts go under rusage.<workload>, per side in seed
    # order beside the end-to-end metrics; each side's median is printed,
    # and the keys already in the file stay
    metrics = [{"name": "wall_s", "better": "lower", "bound": 0.2}]
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": metrics, "run_seconds": 1}))
    out = tmp_path / "BENCH.json"
    out.write_text(json.dumps({"note": "kept", "rusage": {"bias-scan": {"seeds": [1]}}}))

    def run_once(checkout, workload, seed, seconds, trace=0):
        side = 1 if checkout.name == "parent" else 2
        return {"wall_s": float(side), "minflt": 100 * side + seed, "stime_s": 0.01 * side}

    (tmp_path / "parent").mkdir()
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path), "--workload", "mc-moments",
                      "--pairs", "3", "--seed-base", "10", "--json", str(out)])
    record = json.loads(out.read_text())
    assert record["note"] == "kept" and record["rusage"]["bias-scan"] == {"seeds": [1]}
    assert record["rusage"]["mc-moments"] == {
        "seeds": [11, 12, 13],
        "parent": {"minflt": [111, 112, 113], "stime_s": [0.01] * 3},
        "change": {"minflt": [211, 212, 213], "stime_s": [0.02] * 3},
    }
    assert record["end_to_end"]["mc-moments"]["change"] == {"wall_s": [2.0] * 3}
    printed = capsys.readouterr().out
    assert "minflt       per run, median: parent 112, change 212" in printed
    assert "stime_s      per run, median: parent 0.01, change 0.02" in printed
