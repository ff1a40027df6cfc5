import importlib.util
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
