"""Per-layer metrics derived from the spans of a traced run.

Layers are the tomoments modules: ``cli``, ``experiments``, ``sampling``,
``moments``, ``parametric``, ``fitting``, ``profiles`` and ``crb``.  Time
metrics named ``*_ms`` are milliseconds per sweep (median over the first
traced pass, one sweep per input variant); ``*_per_fit`` are exact call counts per estimator fit;
``*_p50``/``*_p99`` pool every fit of those sweeps.  A metric a workload
never exercises (the per-N forms on ``bias-scan``, say) reads 0.
"""

from __future__ import annotations

import math
import statistics

from .spans import END, EXTRA, N, NAME, START, owner, self_times

N_VALUES = (100, 1000, 10000)

# name -> unit; the order is the order BENCHMARK.json lists them in.
LAYER_METRICS = {
    "sampling.snapshots_ms": "ms",
    "sampling.covariance_ms": "ms",
    "sampling.share": "ratio",
    **{f"sampling.trial_ms.N{n}": "ms" for n in N_VALUES},
    "fitting.weighting_ms": "ms",
    "fitting.grid_terms_ms": "ms",
    "fitting.point_terms_ms": "ms",
    "fitting.solve_ms": "ms",
    "fitting.golden_ms": "ms",
    "fitting.golden_self_ms": "ms",
    "fitting.point_terms_per_fit.moments": "count",
    "fitting.point_terms_per_fit.parametric": "count",
    "fitting.solve_per_fit": "count",
    "moments.fit_total_ms": "ms",
    "moments.fit_ms_p50": "ms",
    "moments.fit_ms_p99": "ms",
    "moments.fit_count": "count",
    **{f"moments.fit_ms_p50.N{n}": "ms" for n in N_VALUES},
    "moments.self_ms": "ms",
    "moments.refine_share": "ratio",
    "moments.weighting_loaded": "count",
    "moments.pinv_used": "count",
    "moments.clamped_sigma": "count",
    "parametric.fit_total_ms": "ms",
    "parametric.fit_ms_p50": "ms",
    "parametric.fit_ms_p99": "ms",
    "parametric.fit_count": "count",
    **{f"parametric.fit_ms_p50.N{n}": "ms" for n in N_VALUES},
    "parametric.grid_ms": "ms",
    "parametric.polish_ms": "ms",
    "parametric.polish_nfev": "count",
    "parametric.polish_nit": "count",
    "parametric.polish_success_share": "ratio",
    "parametric.pinv_used": "count",
    "parametric.weighting_loaded": "count",
    "profiles.shape_matrix_ms": "ms",
    "profiles.shape_matrix_per_fit": "count",
    "crb.fim_ms": "ms",
    "crb.stddev_ms": "ms",
    "experiments.self_ms": "ms",
    "experiments.csv_bytes": "B",
    "cli.self_ms": "ms",
    "trace.overhead_s": "s",
}


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _sweep_metrics(spans, selfs, lo: int, hi: int, extras: dict) -> dict:
    """Time totals of one traced sweep, spans ``lo`` to ``hi``."""

    def ms(name, values=None):
        source = values if values is not None else [s[END] - s[START] for s in spans[lo:hi] if s[NAME] == name]
        return 1e3 * sum(source)

    def self_ms(name):
        return 1e3 * sum(selfs[i] for i in range(lo, hi) if spans[i][NAME] == name)

    wall_ms = 1e3 * extras["wall_s"]
    sampling_ms = ms("sampling.snapshots") + ms("sampling.covariance")
    out = {
        "sampling.snapshots_ms": ms("sampling.snapshots"),
        "sampling.covariance_ms": ms("sampling.covariance"),
        "sampling.share": _ratio(sampling_ms, wall_ms),
        "fitting.weighting_ms": ms("fitting.weighting"),
        "fitting.grid_terms_ms": ms("fitting.grid_terms"),
        "fitting.point_terms_ms": ms("fitting.point_terms"),
        "fitting.solve_ms": ms("fitting.solve"),
        "fitting.golden_ms": ms("fitting.golden"),
        "fitting.golden_self_ms": self_ms("fitting.golden"),
        "moments.fit_total_ms": ms("moments.estimate"),
        "moments.self_ms": self_ms("moments.estimate"),
        "parametric.fit_total_ms": ms("parametric.estimate"),
        "parametric.polish_ms": ms("parametric.polish"),
        "profiles.shape_matrix_ms": ms("profiles.shape_matrix"),
        "crb.fim_ms": ms("crb.fim"),
        "crb.stddev_ms": ms("crb.stddev"),
        "experiments.self_ms": self_ms("experiments.run"),
        "cli.self_ms": self_ms("cli.main"),
        "experiments.csv_bytes": float(extras["csv_bytes"]),
    }
    out["moments.refine_share"] = _ratio(
        ms(None, [spans[i][END] - spans[i][START] for i in range(lo, hi)
                  if spans[i][NAME] == "fitting.golden" and owner(spans, i) == "moments.estimate"]),
        out["moments.fit_total_ms"],
    )
    # grid: estimate_parametric entry to minimize entry, minus weighting
    grid = []
    for i in range(lo, hi):
        if spans[i][NAME] != "parametric.estimate":
            continue
        polish_start = spans[i][END]
        weighting = 0.0
        for k in range(i + 1, hi):
            if spans[k][START] >= spans[i][END]:
                break
            if spans[k][NAME] == "parametric.polish":
                polish_start = spans[k][START]
                break
            if spans[k][NAME] == "fitting.weighting":
                weighting += spans[k][END] - spans[k][START]
        grid.append(polish_start - spans[i][START] - weighting)
    out["parametric.grid_ms"] = ms(None, grid)
    for n in N_VALUES:
        trial_ms = [
            s[END] - s[START] for s in spans[lo:hi]
            if s[N] == n and s[NAME] in ("sampling.snapshots", "sampling.covariance")
        ]
        trials = sum(1 for s in spans[lo:hi] if s[N] == n and s[NAME] == "sampling.snapshots")
        out[f"sampling.trial_ms.N{n}"] = _ratio(1e3 * sum(trial_ms), trials)
    return out


def layer_metrics(spans, sweeps, overhead_s: float) -> dict:
    """Every metric of :data:`LAYER_METRICS` from a traced run.

    ``sweeps`` lists, per traced sweep, ``(lo, hi, extras)``: the span index
    range of the sweep and its measured ``wall_s`` and ``csv_bytes``.  ``overhead_s`` is the traced minus the
    untraced ``wall_s``, measured by the caller.
    """
    selfs = self_times(spans)
    per_sweep = [_sweep_metrics(spans, selfs, lo, hi, extras) for lo, hi, extras in sweeps]
    out = {name: statistics.median(m[name] for m in per_sweep) for name in per_sweep[0]}

    fits = {name: [] for name in ("moments.estimate", "parametric.estimate")}
    fits_by_n = {(name, n): [] for name in fits for n in N_VALUES}
    calls = {"moments": 0, "parametric": 0, "solve": 0, "shape": 0}
    flags = {"moments": dict.fromkeys(("weighting_loaded", "pinv_used", "clamped_sigma"), 0),
             "parametric": dict.fromkeys(("weighting_loaded", "pinv_used"), 0)}
    polish = []
    for i in range(sweeps[0][0], sweeps[-1][1]):
        s = spans[i]
        name = s[NAME]
        if name in fits:
            fits[name].append(1e3 * (s[END] - s[START]))
            if s[N] in N_VALUES:
                fits_by_n[(name, s[N])].append(1e3 * (s[END] - s[START]))
            layer = name.split(".")[0]
            for flag in flags[layer]:
                flags[layer][flag] += int(s[EXTRA][flag])
        elif name == "fitting.point_terms":
            calls[owner(spans, i).split(".")[0]] += 1
        elif name == "fitting.solve":
            calls["solve"] += 1
        elif name == "profiles.shape_matrix":
            calls["shape"] += 1
        elif name == "parametric.polish":
            polish.append(s[EXTRA])

    n_sweeps = len(sweeps)
    n_mom = len(fits["moments.estimate"])
    n_par = len(fits["parametric.estimate"])
    for layer, name in (("moments", "moments.estimate"), ("parametric", "parametric.estimate")):
        out[f"{layer}.fit_ms_p50"] = percentile(fits[name], 50)
        out[f"{layer}.fit_ms_p99"] = percentile(fits[name], 99)
        out[f"{layer}.fit_count"] = float(len(fits[name]))
        for n in N_VALUES:
            out[f"{layer}.fit_ms_p50.N{n}"] = percentile(fits_by_n[(name, n)], 50)
        for flag, count in flags[layer].items():
            out[f"{layer}.{flag}"] = _ratio(count, n_sweeps)
    out["fitting.point_terms_per_fit.moments"] = _ratio(calls["moments"], n_mom)
    out["fitting.point_terms_per_fit.parametric"] = _ratio(calls["parametric"], n_par)
    out["fitting.solve_per_fit"] = _ratio(calls["solve"], n_mom)
    out["profiles.shape_matrix_per_fit"] = _ratio(calls["shape"], n_par)
    out["parametric.polish_nfev"] = _ratio(sum(p["nfev"] for p in polish), len(polish))
    out["parametric.polish_nit"] = _ratio(sum(p["nit"] for p in polish), len(polish))
    out["parametric.polish_success_share"] = _ratio(sum(p["success"] for p in polish), len(polish))
    out["trace.overhead_s"] = overhead_s
    missing = set(LAYER_METRICS) ^ set(out)
    if missing:
        raise AssertionError(f"layer metrics out of step with LAYER_METRICS: {sorted(missing)}")
    return {name: out[name] for name in LAYER_METRICS}
