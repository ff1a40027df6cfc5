"""Span recorder that times each tomoments layer from outside the package.

Every layer boundary is a module attribute one module looks up on another
at call time (``tomoments.experiments.estimate``, ``tomoments.moments.fit_terms``,
...).  :class:`Recorder` swaps those attributes for timing wrappers and puts
the originals back on :meth:`Recorder.restore`; nothing in ``src/`` changes.

A span is ``[name, start, end, parent, trial, N, extra]``: times from
``time.perf_counter``, ``parent`` the index of the enclosing span (-1 at the
root), ``trial`` the number of ``derive_seed`` calls so far (one per Monte
Carlo trial), ``N`` the snapshot count of the latest sampled stack, and
``extra`` what the call returned that a metric needs (solver flags,
Nelder-Mead counts).  Spans stay in memory until :meth:`Recorder.dump`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time

NAME, START, END, PARENT, TRIAL, N, EXTRA = range(7)

ESTIMATORS = ("moments.estimate", "parametric.estimate")


def _moment_flags(fit) -> dict:
    d = fit.diagnostics
    return {"weighting_loaded": d.weighting_loaded, "pinv_used": d.pinv_used, "clamped_sigma": d.clamped_sigma}


def _parametric_flags(fit) -> dict:
    d = fit.diagnostics
    return {"weighting_loaded": d.weighting_loaded, "pinv_used": d.pinv_used}


def _polish_counts(result) -> dict:
    return {"nfev": int(result.nfev), "nit": int(result.nit), "success": bool(result.success)}


# (module, attribute, span name, function of the return value -> extra)
TARGETS = (
    ("tomoments.cli", "run_experiment", "experiments.run", None),
    ("tomoments.experiments", "derive_seed", "sampling.derive_seed", None),
    ("tomoments.experiments", "sample_snapshots", "sampling.snapshots", None),
    ("tomoments.experiments", "sample_covariance", "sampling.covariance", None),
    ("tomoments.experiments", "estimate", "moments.estimate", _moment_flags),
    ("tomoments.experiments", "estimate_parametric", "parametric.estimate", _parametric_flags),
    ("tomoments.experiments", "fisher_information", "crb.fim", None),
    ("tomoments.experiments", "crb_stddev", "crb.stddev", None),
    ("tomoments.moments", "fit_terms_grid", "fitting.grid_terms", None),
    ("tomoments.moments", "fit_terms", "fitting.point_terms", None),
    ("tomoments.moments", "solve_quadratic", "fitting.solve", None),
    ("tomoments.moments", "golden_section_max", "fitting.golden", None),
    ("tomoments.moments", "cost_constant", "fitting.cost_constant", None),
    ("tomoments.moments", "_weighting_flagged", "fitting.weighting", None),
    ("tomoments.parametric", "fit_terms", "fitting.point_terms", None),
    ("tomoments.parametric", "cost_constant", "fitting.cost_constant", None),
    ("tomoments.parametric", "_weighting_flagged", "fitting.weighting", None),
    ("tomoments.parametric", "shape_matrix", "profiles.shape_matrix", None),
    ("tomoments.parametric", "minimize", "parametric.polish", _polish_counts),
)


class Recorder:
    """In-memory span log plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []
        self.trial = 0
        self.N = None

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body."""
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.trial, self.N, None]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record[START] = time.perf_counter()
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, function, name: str, extract):
        @functools.wraps(function)
        def wrapped(*args, **kwargs):
            if name == "sampling.derive_seed":
                self.trial += 1
            elif name == "sampling.snapshots":
                self.N = int(args[1] if len(args) > 1 else kwargs["N"])
            with self.span(name) as record:
                result = function(*args, **kwargs)
                if extract is not None:
                    record[EXTRA] = extract(result)
            return result

        return wrapped

    def install(self, targets=TARGETS) -> None:
        """Swap every target attribute for a timing wrapper."""
        for module_name, attribute, name, extract in targets:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            self._patches.append((module, attribute, original))
            setattr(module, attribute, self._wrapper(original, name, extract))

    def restore(self) -> None:
        """Put every patched attribute back, last patch first."""
        while self._patches:
            module, attribute, original = self._patches.pop()
            setattr(module, attribute, original)

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")


def self_times(spans) -> list:
    """Duration of each span minus the union of its children's intervals."""
    children: dict = {}
    for record in spans:
        if record[PARENT] >= 0:
            children.setdefault(record[PARENT], []).append((record[START], record[END]))
    out = []
    for index, record in enumerate(spans):
        covered = 0.0
        cursor = record[START]
        for start, end in sorted(children.get(index, ())):
            start = max(start, cursor)
            end = min(end, record[END])
            if end > start:
                covered += end - start
                cursor = end
        out.append(record[END] - record[START] - covered)
    return out


def owner(spans, index: int):
    """Name of the nearest estimator span enclosing span ``index``, or None."""
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] in ESTIMATORS:
            return spans[parent][NAME]
        parent = spans[parent][PARENT]
    return None
