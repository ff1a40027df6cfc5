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


def sample_snapshots(R: CovarianceModel, N: int, seed: int, *, out: np.ndarray | None = None) -> np.ndarray:
    """Draw N zero-mean circular complex Gaussian snapshots with covariance R,
    the rows of a complex ``(N, M)`` array.

    Snapshots are ``y = L w`` where ``L L^H = R`` and w has i.i.d. entries
    with independent real and imaginary parts of variance 1/2.  The stream
    is generated by the counter-based Philox 4x64 generator keyed by
    ``seed``, so equal seeds give byte-identical stacks.  ``N`` is a count
    (see :mod:`tomoments._fields`).

    ``out``, as in numpy, is a C-contiguous, writeable complex ``(N, M)``
    array that the stack is written into and returned as; its contents are
    overwritten, and valid until the next draw into it.  The stack has the
    bits of a fresh draw, so a caller drawing many stacks of one size can
    reuse one buffer, which the allocator need not map again per draw.
    Any other ``out`` raises ``ValueError``.
    """
    N = count(N, "N", least=1)
    shape = (N, R.M)
    if out is None:
        out = np.empty(shape, dtype=complex)
    elif not (
        isinstance(out, np.ndarray)
        and out.shape == shape
        and out.dtype == complex
        and out.flags.c_contiguous
        and out.flags.writeable
    ):
        raise ValueError(f"out must be a C-contiguous, writeable complex array of shape {shape}")
    L = covariance_factor(R.matrix)
    rng = np.random.Generator(np.random.Philox(int(seed)))
    # the bits of (a + 1j b) / sqrt(2), without its three complex temporaries:
    # the first N M floats of out take a, then b, before the product overwrites them
    normals = out.reshape(-1).view(float)[: N * R.M].reshape(shape)
    w = np.empty(shape, dtype=complex)
    w.real = rng.standard_normal(out=normals)
    w.imag = rng.standard_normal(out=normals)
    w *= 1.0 / math.sqrt(2.0)
    return np.matmul(w, L.T, out=out)


def sample_covariance(snapshots: np.ndarray) -> CovarianceModel:
    """Sample covariance ``(1/N) sum y y^H`` of the rows of a complex ``(N, M)``
    array, symmetrized to exact Hermitian."""
    R = snapshots.T @ snapshots.conj()
    R /= snapshots.shape[0]
    R += R.conj().T
    R *= 0.5
    return CovarianceModel(R)
