"""Circular complex Gaussian snapshot simulation and sample covariances.

A snapshot stack is a complex ``(N, M)`` array, one snapshot per row.
"""

from __future__ import annotations

import hashlib
import math
import warnings

import numpy as np

from ._fields import count
from .profiles import CovarianceModel

__all__ = [
    "derive_seed",
    "covariance_factor",
    "sample_snapshots",
    "sample_covariance",
]

# Jitter added to the diagonal when a PSD-but-singular matrix defeats the
# Cholesky factorization, relative to the mean diagonal power.
_CHOLESKY_JITTER = 1e-12
_PSD_WARN_RTOL = 1e-10


def derive_seed(master_seed: int, *indices: int) -> int:
    """Collision-resistant 64-bit seed for a labeled stream.

    Hashes the master seed together with any number of integer indices
    (experiment id, sweep index, trial, ...) through BLAKE2b, so trial
    streams are decorrelated and reproducible across platforms.
    """
    message = ",".join(str(int(v)) for v in (master_seed, *indices)).encode("ascii")
    digest = hashlib.blake2b(message, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def covariance_factor(matrix: np.ndarray) -> np.ndarray:
    """Factor L with ``L L^H = R`` for a PSD Hermitian matrix.

    Tries a Cholesky factorization, then Cholesky with a small diagonal
    jitter (rank-deficient but PSD matrices), and finally an eigenvalue
    factorization with negative eigenvalues clamped to zero.  The last
    fallback warns when the matrix was not PSD within tolerance.
    """
    R = np.asarray(matrix, dtype=complex)
    M = R.shape[0]
    try:
        return np.linalg.cholesky(R)
    except np.linalg.LinAlgError:
        pass
    trace = float(np.real(np.trace(R)))
    jitter = _CHOLESKY_JITTER * trace / M
    if jitter > 0.0:
        try:
            return np.linalg.cholesky(R + jitter * np.eye(M))
        except np.linalg.LinAlgError:
            pass
    eigenvalues, vectors = np.linalg.eigh(R)
    if eigenvalues[0] < -_PSD_WARN_RTOL * max(trace, 0.0):
        warnings.warn(
            "covariance is not PSD within tolerance; clamping negative eigenvalues",
            RuntimeWarning,
            stacklevel=2,
        )
    return vectors * np.sqrt(np.clip(eigenvalues, 0.0, None))


def sample_snapshots(R: CovarianceModel, N: int, seed: int) -> np.ndarray:
    """Draw N zero-mean circular complex Gaussian snapshots with covariance R,
    the rows of a complex ``(N, M)`` array.

    Snapshots are ``y = L w`` where ``L L^H = R`` and w has i.i.d. entries
    with independent real and imaginary parts of variance 1/2.  The stream
    is generated by the counter-based Philox 4x64 generator keyed by
    ``seed``, so equal seeds give byte-identical stacks.  ``N`` is a count
    (see :mod:`tomoments._fields`).
    """
    N = count(N, "N", least=1)
    L = covariance_factor(R.matrix)
    rng = np.random.Generator(np.random.Philox(int(seed)))
    shape = (N, R.M)
    w = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    return w @ L.T


def sample_covariance(snapshots: np.ndarray) -> CovarianceModel:
    """Sample covariance ``(1/N) sum y y^H`` of the rows of a complex ``(N, M)``
    array, symmetrized to exact Hermitian."""
    R = snapshots.T @ snapshots.conj() / snapshots.shape[0]
    R = 0.5 * (R + R.conj().T)
    return CovarianceModel(R, "sample")
