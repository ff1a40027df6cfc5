"""Calibration kernel: a fixed piece of work that tells how fast the host runs now.

On a shared virtual machine the speed of a virtual CPU drifts with the
load of other tenants: a fixed kernel took from 3.4 to 6.3 ms on one
2-vCPU x86 VM within a few minutes, and the drift holds for tens of
seconds, so it moves whole runs.  ``measure.py`` runs this kernel between
sweeps and scales each sweep's times by ``REFERENCE_S / calibration``,
the mean of the samples taken just before and just after it.  The scaled
times read as seconds on that VM at its median speed.

The kernel uses only numpy and the standard library, never the program,
so a change to the program cannot change it.  Its mix follows the
program's inner loop: eigendecompositions, products and solves of small
complex Hermitian matrices, plus scalar Python arithmetic.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Calls per sample; the sample is their median.
REPS = 5
# Median seconds of one kernel call on the 2-vCPU x86 VM (Intel Xeon,
# Python 3.11, numpy 2.4, one BLAS thread) the benchmark was defined on.
REFERENCE_S = 0.048
_ITERATIONS = 800


class Calibrator:
    """Times the kernel; ``sample()`` returns seconds per call."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        a = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        self._h = a @ a.conj().T + 7.0 * np.eye(7)
        self._v = rng.standard_normal(7)
        self.kernel()  # first calls load LAPACK routines; keep them out of the samples

    def kernel(self) -> float:
        h, v = self._h, self._v
        total = 0.0
        for _ in range(_ITERATIONS):
            values, vectors = np.linalg.eigh(h)
            inverse = (vectors / values) @ vectors.conj().T
            total += float(np.real(np.trace(inverse @ h)))
            total += float(np.linalg.solve(h, v)[0].real)
            for j in range(10):
                total += j * 0.5 * total / (1.0 + total)
        return total

    def sample(self) -> float:
        times = []
        for _ in range(REPS):
            start = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)
