"""Output check: compare the CSVs of a sweep with the stored reference.

A reference is made by ``make_reference.py`` from the code the benchmark
was defined on.  Per CSV it stores the header, the row count and every
``stride``-th row (stride 1, that is every row, except for the large
spectrum-interpolation CSV).  Identity columns and the ``n_trials`` /
``failures`` counts must match exactly; every other cell must agree within
the tolerance in ``tolerance.json``:

    |value - reference| <= atol + rtol * |reference|
"""

from __future__ import annotations

import csv
import gzip
import io
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"


def tolerance() -> dict:
    return json.loads((HERE / "tolerance.json").read_text())


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str) -> dict:
    """``{variant (str): {csv name: entry}}`` for a workload."""
    with gzip.open(reference_path(workload), "rt") as handle:
        return json.load(handle)


def parse(text: str) -> list:
    return list(csv.reader(io.StringIO(text)))


def summarize(text: str, stride: int) -> dict:
    """Reference entry for one CSV text."""
    rows = parse(text)
    return {"header": rows[0], "rows": len(rows) - 1, "stride": stride, "sample": rows[1::stride]}


def _cells_agree(value: str, expected: str, tol: dict) -> bool:
    if value == expected:
        return True
    if value == "" or expected == "":
        return False
    try:
        a, b = float(value), float(expected)
    except ValueError:
        return False
    return abs(a - b) <= tol["atol"] + tol["rtol"] * abs(b)


def compare(text: str, entry: dict, tol: dict, label: str = "") -> list:
    """Problems found comparing one CSV text with its reference entry."""
    rows = parse(text)
    if not rows or rows[0] != entry["header"]:
        return [f"{label}: header differs"]
    header = rows[0]
    body = rows[1:]
    if len(body) != entry["rows"]:
        return [f"{label}: {len(body)} rows, reference has {entry['rows']}"]
    exact = set(tol["exact_columns"])
    problems = []
    for index, expected in enumerate(entry["sample"]):
        row_number = index * entry["stride"]
        row = body[row_number]
        for column, value, ref in zip(header, row, expected):
            ok = value == ref if column in exact else _cells_agree(value, ref, tol)
            if not ok:
                problems.append(f"{label} row {row_number} {column}: {value!r} != reference {ref!r}")
    return problems


def check_sweep(workload: str, variant: int, texts: dict) -> list:
    """Problems found in a sweep's CSV texts (``{relative path: text}``)."""
    entries = load_reference(workload).get(str(variant))
    if entries is None:
        return [f"no reference stored for {workload} variant {variant}"]
    tol = tolerance()
    problems = []
    if set(texts) != set(entries):
        problems.append(f"outputs {sorted(texts)} differ from reference outputs {sorted(entries)}")
    for name in sorted(set(texts) & set(entries)):
        problems += compare(texts[name], entries[name], tol, name)
    return problems


def check_run(workload: str, sweep_dirs: dict, outputs: list) -> list:
    """Problems found in the CSVs a measuring run left, one directory per variant.

    Each run repeats a variant's output byte for byte, so the CSVs left on
    disk stand for every sweep of that variant.
    """
    problems = []
    for variant, directory in sorted(sweep_dirs.items(), key=lambda item: int(item[0])):
        paths = {name: Path(directory) / name for name in outputs}
        missing = sorted(name for name, path in paths.items() if not path.is_file())
        if missing:
            problems.append(f"variant {variant}: no output {missing}")
            continue
        texts = {name: path.read_text() for name, path in paths.items()}
        problems += check_sweep(workload, int(variant), texts)
    return problems


def is_summary(name: str) -> bool:
    """Whether a CSV is a summary, with one row per estimator, sweep value and parameter."""
    return not (name.endswith("_trials.csv") or name.endswith("interpolation.csv"))


def fit_counts(texts: dict) -> tuple:
    """``(attempted, failed)`` estimator fits, read from the summary CSVs.

    Each fit gives one row per parameter; the ``z0`` rows carry its counts.
    """
    attempted = failed = 0
    for name, text in texts.items():
        if not is_summary(name):
            continue
        rows = parse(text)
        header = rows[0]
        p, n, f = header.index("parameter"), header.index("n_trials"), header.index("failures")
        for row in rows[1:]:
            if row[p] == "z0":
                attempted += int(row[n]) + int(row[f])
                failed += int(row[f])
    return attempted, failed
