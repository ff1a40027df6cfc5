"""Shared machinery for weighted covariance matching.

Both estimators minimize the weighted Frobenius cost
``|| W^(1/2) (Rbar - Rhat(theta)) W^(1/2) ||_F^2`` over models of the form
``Rhat = Phi(z) (sum_i alpha_i H_i) Phi(z)^H`` with ``Phi(z) = diag a(z)``,
real coefficients alpha and a fixed stack of Hermitian basis matrices H_i.
The linear coefficients concentrate in closed form through the quantities

    y_i(z) = tr(H_i^H Phi^H W Rbar W Phi)      (weighted data correlations)
    Y_ik(z) = tr(H_i^H G H_k G), G = Phi^H W Phi

which one engine, :func:`fit_terms_grid`, assembles from M x M products for
both estimators; the M^2 x M^2 Kronecker forms are never materialized.  Its
steering vectors ``(..., M)`` and basis stacks ``(..., K, M, M)`` broadcast
over their leading dimensions, and ``Y_ik = tr(C_i C_k)`` with
``C_k = G H_k``, which holds only for a Hermitian basis.  Both terms are then
exactly real.  :func:`fit_terms` is the single-point case.

The height search both estimators run has its defaults and checks here too:
the searched interval ``[0, z0_max)``, the coarse grid size, the refinement
tolerance, the validation of those config fields and the screen that
rejects non-finite or zero covariances.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import ArrayConfig, fourier_resolution
from .profiles import CovarianceModel

__all__ = [
    "WEIGHTINGS",
    "DegenerateCovarianceError",
    "weighting",
    "fit_terms",
    "fit_terms_grid",
    "solve_quadratic",
    "cost_constant",
    "golden_section_max",
]

WEIGHTINGS = ("identity", "inverse_sample")

_CONDITION_LIMIT = 1e12
_LOADING_FACTOR = 1e-8
_PINV_CUTOFF = 1e-12
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# Height-grid default: at least 8 points per acquisition and 16 per resolution cell.
_GRID_PER_CHANNEL = 8
_GRID_PER_RESOLUTION = 16
_REFINE_TOL_REL = 1e-4


class DegenerateCovarianceError(ValueError):
    """Raised when a covariance input is numerically zero or unusable."""


def weighting(R_bar: CovarianceModel, choice: str) -> np.ndarray:
    """Weighting matrix for the covariance-matching cost.

    ``"identity"`` returns I; ``"inverse_sample"`` returns the inverse of
    ``R_bar``, applying diagonal loading first when the matrix is singular
    or has a 2-norm condition number above 1e12.
    """
    W, _ = _weighting_flagged(R_bar, choice)
    return W


def _weighting_flagged(R_bar: CovarianceModel, choice: str) -> tuple[np.ndarray, bool]:
    if choice not in WEIGHTINGS:
        raise ValueError(f"weighting must be one of {WEIGHTINGS}")
    M = R_bar.M
    if choice == "identity":
        return np.eye(M), False
    R = np.asarray(R_bar.matrix)
    eigenvalues = np.linalg.eigvalsh(R)
    loaded = bool(eigenvalues[0] <= 0.0 or eigenvalues[-1] / eigenvalues[0] > _CONDITION_LIMIT)
    if loaded:
        trace = float(np.real(np.trace(R)))
        if trace <= 0.0:
            raise DegenerateCovarianceError("covariance has nonpositive trace; cannot weight")
        R = R + (_LOADING_FACTOR * trace / M) * np.eye(M)
    eigenvalues, vectors = np.linalg.eigh(R)
    if eigenvalues[0] <= 0.0:
        raise DegenerateCovarianceError("covariance is singular even after diagonal loading")
    W = (vectors / eigenvalues) @ vectors.conj().T
    return 0.5 * (W + W.conj().T), loaded


def _check_search_options(config, grid_name: str) -> None:
    """Validate the weighting and height-search fields both estimator configs share.

    ``grid_name`` names the config's coarse z0 grid field; integer-valued
    fields are normalized in place on the frozen config.
    """
    if config.weighting not in WEIGHTINGS:
        raise ValueError(f"weighting must be one of {WEIGHTINGS}")
    grid = getattr(config, grid_name)
    if grid is not None:
        if int(grid) != grid or grid < 2:
            raise ValueError(f"{grid_name} must be an integer >= 2")
        object.__setattr__(config, grid_name, int(grid))
    for name in ("refine_tol", "z0_max"):
        value = getattr(config, name)
        if value is not None:
            if isinstance(value, bool):
                raise ValueError(f"{name} must be a length in m, not a boolean")
            value = float(value)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite")
            object.__setattr__(config, name, value)


def _checked_covariance(R_bar: CovarianceModel, array: ArrayConfig) -> np.ndarray:
    """The covariance matrix, once it matches the array and is finite and nonzero."""
    if R_bar.M != array.M:
        raise ValueError("covariance and array dimensions disagree")
    R = np.asarray(R_bar.matrix)
    if not np.all(np.isfinite(R)):
        raise ValueError("covariance contains non-finite entries")
    if np.linalg.norm(R) < 1e-30:
        raise DegenerateCovarianceError("covariance is numerically zero")
    return R


def _search_domain(config, array: ArrayConfig) -> float:
    if config.z0_max is not None:
        return config.z0_max
    if array.ambiguity is None:
        raise ValueError("array has no known ambiguity; set z0_max on the config")
    return float(array.ambiguity)


def _default_grid_points(array: ArrayConfig, z_amb: float) -> int:
    per_resolution = math.ceil(z_amb / (fourier_resolution(array) / _GRID_PER_RESOLUTION))
    return max(_GRID_PER_CHANNEL * array.M, per_resolution)


def _refine_tol(config, z_amb: float) -> float:
    return config.refine_tol if config.refine_tol is not None else _REFINE_TOL_REL * z_amb


def fit_terms(
    stack: np.ndarray,
    a: np.ndarray,
    W: np.ndarray,
    WRW: np.ndarray,
):
    """Concentration terms y (K,) and Y (K, K) at one steering vector ``a``.

    The single-point case of :func:`fit_terms_grid`; ``WRW`` is ``W Rbar W``.
    """
    y, Y = fit_terms_grid(stack, a[None], W, WRW)
    return y[0], Y[0]


def fit_terms_grid(
    stack: np.ndarray,
    A: np.ndarray,
    W: np.ndarray,
    WRW: np.ndarray,
):
    """Concentration terms y (..., K) and Y (..., K, K) over broadcast batches.

    Steering vectors ``A (..., M)`` and Hermitian bases ``stack (..., K, M, M)``
    broadcast over their leading dimensions: ``(Z, M)`` against ``(K, M, M)``
    gives one system per height, ``(Z, 1, M)`` against ``(S, K, M, M)`` one per
    (height, basis) pair.  ``Y_ik = tr(C_i C_k)`` with ``C_k = G H_k`` is valid
    only because every ``H_k`` is Hermitian.  Both outputs are real floats.
    """
    Ac = A.conj()
    G = Ac[..., :, None] * W * A[..., None, :]
    T = Ac[..., :, None] * WRW * A[..., None, :]
    y = np.einsum("...kmn,...mn->...k", stack.conj(), T).real
    C = G[..., None, :, :] @ stack
    Y = np.einsum("...imn,...knm->...ik", C, C).real
    return y.copy(), 0.5 * (Y + np.swapaxes(Y, -1, -2))


def solve_quadratic(y: np.ndarray, Y: np.ndarray):
    """Solve ``Y alpha = y`` and evaluate the concentrated quadratic form.

    Accepts a single system (1-d y) or a leading batch dimension.  Each
    system is diagonally equilibrated to unit diagonal before solving, so
    the conditioning screen reflects collinearity rather than column
    scale; high-order regressor columns are orders of magnitude smaller
    than the leading ones.  Systems whose smallest equilibrated
    eigenvalue falls below 1e-12 of the largest fall back to a
    pseudo-inverse and are flagged.  Returns ``(alpha, objective,
    used_pinv)`` with the objective ``y^T alpha`` clipped at zero.
    """
    y = np.asarray(y, dtype=float)
    Y = np.asarray(Y, dtype=float)
    single = y.ndim == 1
    if single:
        y = y[None]
        Y = Y[None]
    diag = np.einsum("zkk->zk", Y)
    scale = np.sqrt(np.where(np.isfinite(diag) & (diag > 0.0), diag, 1.0))
    Ys = Y / (scale[:, :, None] * scale[:, None, :])
    ys = y / scale
    eigenvalues = np.linalg.eigvalsh(Ys)
    bad = (eigenvalues[:, 0] <= eigenvalues[:, -1] * _PINV_CUTOFF) | ~np.all(
        np.isfinite(eigenvalues), axis=-1
    )
    beta = np.empty_like(ys)
    good = ~bad
    if np.any(good):
        beta[good] = np.linalg.solve(Ys[good], ys[good][..., None])[..., 0]
    for (i,) in np.argwhere(bad):
        beta[i] = np.linalg.pinv(Ys[i], rcond=_PINV_CUTOFF) @ ys[i]
    alpha = beta / scale
    objective = np.clip(np.einsum("zk,zk->z", ys, beta), 0.0, None)
    used_pinv = bool(np.any(bad))
    if single:
        return alpha[0], float(objective[0]), used_pinv
    return alpha, objective, used_pinv


def cost_constant(R: np.ndarray, W: np.ndarray) -> float:
    """Model-independent cost term ``tr(Rbar W Rbar W)``."""
    X = W @ R
    return float(np.real(np.einsum("nm,mn->", X, X)))


def golden_section_max(f, lo: float, hi: float, tol: float) -> float:
    """Golden-section maximizer of a unimodal function on [lo, hi]."""
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)
