"""Shared machinery for weighted covariance matching.

Both estimators minimize the weighted Frobenius cost
``|| W^(1/2) (Rbar - Rhat(theta)) W^(1/2) ||_F^2`` over models of the form
``Rhat = Phi(z) (sum_i alpha_i H_i) Phi(z)^H`` with ``Phi(z) = diag a(z)``,
real coefficients alpha and a fixed stack of Hermitian basis matrices H_i.
The linear coefficients concentrate in closed form through the quantities

    y_i(z) = tr(H_i^H Phi^H W Rbar W Phi)      (weighted data correlations)
    Y_ik(z) = tr(H_i^H G H_k G), G = Phi^H W Phi

with a point evaluator and grid evaluators shared by both estimators; the
M^2 x M^2 Kronecker forms are never materialized.

- Points (refinement and the final coefficients): :func:`fit_terms` builds
  the terms from M x M products, ``Y_ik = tr(C_i C_k)`` with
  ``C_k = G H_k``, which holds only for a Hermitian basis.
- Grids: every basis matrix is a function of the baseline difference,
  ``H_k[m, n] = h_k(kz_m - kz_n)``, so :func:`harmonic_terms` computes
  coefficients over the array's distinct baseline frequencies once per
  covariance, among them the rows ``f >= 0`` of the weighting's Gram
  matrix ``Q``.  :func:`fit_terms_grid` evaluates the terms of any
  Hermitian basis on a whole height grid from them, Y in Gram form, a
  quadratic form in the responses with ``Q``; :func:`shape_terms_grid` does
  the same for a single real, even response per system (the parametric
  shapes over a sigma grid).

All return exactly real terms; on the same inputs they agree to rounding.
Refinement stays on the product form: near a flat optimum a change of the
objective at the rounding level moves the polished estimates measurably.
The concentrated quadratic of one system, :func:`solve_quadratic` on a 1-d
``y``, takes a path without batch bookkeeping that is bit-identical to a row
of the batched solve.

The height search both estimators run has its defaults and checks here too:
the searched interval ``[0, z0_max)`` and the bounds a refined height keeps
when ``z0_max`` is not a period of the array, the coarse grid size, the
refinement tolerance, the validation of those config fields (by the rules
of :mod:`tomoments._fields`) and the screen that rejects non-finite or
zero covariances.  What a search needs of the config and the array
alone is built once and cached, read-only: the frequency grouping per array
(:func:`_frequency_groups`), and the grid with its phase table per (config,
array) (:func:`_search_plan`, inside each estimator's cached plan).  Each
cache keeps the :data:`_PLAN_CACHE_SIZE` latest entries.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import _fields
from .geometry import ArrayConfig, baseline_differences, fourier_resolution
from .profiles import CovarianceModel

__all__ = [
    "WEIGHTINGS",
    "DegenerateCovarianceError",
    "weighting",
    "fit_terms",
    "HarmonicTerms",
    "harmonic_terms",
    "fit_terms_grid",
    "shape_terms_grid",
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
# heights per chunk of shape_terms_grid: the chunk's (heights, F/2, F) complex
# and (heights, F/2, S) real temporaries hold about 0.1 MB each at F = 25 and
# S = 64 (the parametric grid on the reference stack); all 96 heights at once
# would hold about 0.6 MB each and took twice as long on one core
_GRAM_CHUNK = 16
# (config, array) pairs whose search tables stay cached: a sweep uses one
# array and up to four estimator configs; a moment plan holds about 0.25 MB
_PLAN_CACHE_SIZE = 16


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
    _fields.choice(choice, WEIGHTINGS, "weighting")
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

    ``grid_name`` names the config's coarse z0 grid field; the fields set
    are stored normalized (an int, floats) on the frozen config.
    """
    _fields.choice(config.weighting, WEIGHTINGS, "weighting")
    if getattr(config, grid_name) is not None:
        object.__setattr__(config, grid_name, _fields.count(getattr(config, grid_name), grid_name, least=2))
    for name in ("refine_tol", "z0_max"):
        if getattr(config, name) is not None:
            object.__setattr__(config, name, _fields.real(getattr(config, name), name, above=0.0))


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


def _height_bounds(array: ArrayConfig, z_amb: float) -> tuple[float, float] | None:
    """Bounds on a refined height, or None when the search wraps.

    When ``z_amb`` is a whole number of the array's ambiguities the steering
    vectors repeat every ``z_amb``, so refinement runs free and the height
    wraps back into ``[0, z_amb)``.  Otherwise (a non-uniform stack, or a
    domain that is not a period) wrapping would move the fit to a height
    with a different model, so refinement stays inside ``[0, z_amb)``: the
    bounds are 0 and the largest float below ``z_amb``.
    """
    if array.ambiguity is not None and float(z_amb / array.ambiguity).is_integer():
        return None
    return 0.0, math.nextafter(z_amb, 0.0)


def _default_grid_points(array: ArrayConfig, z_amb: float) -> int:
    per_resolution = math.ceil(z_amb / (fourier_resolution(array) / _GRID_PER_RESOLUTION))
    return max(_GRID_PER_CHANNEL * array.M, per_resolution)


def _refine_tol(config, z_amb: float) -> float:
    return config.refine_tol if config.refine_tol is not None else _REFINE_TOL_REL * z_amb


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: cached tables are shared by every fit that hits the cache."""
    a.setflags(write=False)
    return a


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _frequency_groups(array: ArrayConfig) -> tuple[np.ndarray, np.ndarray]:
    """The distinct baseline frequencies ``(F,)`` and the 0/1 matrix ``(F, M*M)``
    that sums the flattened ``(m, n)`` pairs at each of them."""
    frequencies, pair = np.unique(baseline_differences(array), return_inverse=True)
    members = (pair.reshape(-1) == np.arange(frequencies.size)[:, None]).astype(float)
    return _read_only(frequencies), _read_only(members)


class _SearchPlan(NamedTuple):
    """The height-search tables that depend only on the config and the array.

    ``z_amb`` is the searched interval's upper edge, ``z_grid (Z,)`` the
    coarse grid with spacing ``step``, ``bounds`` those of
    :func:`_height_bounds`, ``frequencies (F,)`` the array's distinct
    baseline frequencies and ``phase (Z, F)`` the table ``exp(j z f)``.
    """

    z_amb: float
    step: float
    z_grid: np.ndarray
    bounds: tuple[float, float] | None
    refine_tol: float
    frequencies: np.ndarray
    phase: np.ndarray


def _search_plan(config, array: ArrayConfig, grid_points: int | None) -> _SearchPlan:
    """The :class:`_SearchPlan` of a config whose coarse grid field holds ``grid_points``.

    Each estimator caches its own plan, which holds this one, per (config, array).
    """
    z_amb = _search_domain(config, array)
    points = grid_points or _default_grid_points(array, z_amb)
    step = z_amb / points
    z_grid = step * np.arange(points)
    frequencies = _frequency_groups(array)[0]
    return _SearchPlan(
        z_amb=z_amb,
        step=step,
        z_grid=_read_only(z_grid),
        bounds=_height_bounds(array, z_amb),
        refine_tol=_refine_tol(config, z_amb),
        frequencies=frequencies,
        phase=_read_only(np.exp(1j * np.multiply.outer(z_grid, frequencies))),
    )


def fit_terms(
    stack: np.ndarray,
    a: np.ndarray,
    W: np.ndarray,
    WRW: np.ndarray,
):
    """Concentration terms y (K,) and Y (K, K) at one steering vector ``a``.

    Product form: ``y_i = tr(H_i^H T)`` with ``T = Phi^H (W Rbar W) Phi``, and
    ``Y_ik = tr(C_i C_k)`` with ``C_k = G H_k`` and ``G = Phi^H W Phi``, which
    holds only because every ``H_k`` of the stack ``(K, M, M)`` is Hermitian.
    ``WRW`` is ``W Rbar W``.  Both outputs are real floats.
    """
    ac = a.conj()
    G = ac[:, None] * W * a[None, :]
    T = ac[:, None] * WRW * a[None, :]
    y = np.einsum("kmn,mn->k", stack.conj(), T).real
    C = G @ stack
    Y = np.einsum("imn,knm->ik", C, C).real
    return y.copy(), 0.5 * (Y + Y.T)


class HarmonicTerms(NamedTuple):
    """Coefficients of the concentration terms of one covariance, by baseline frequency.

    ``frequencies (F,)`` are the distinct baseline differences
    ``f_mn = kz_m - kz_n``, sorted and in exact pairs ``+-f``; ``c (F,)``
    holds ``c_f``, the sum of ``(W Rbar W)_nm`` over the pairs with
    ``f_mn = f`` (``(F, J)`` for a stack of J data matrices).  ``Q`` holds the
    rows ``f >= 0`` (``(F // 2 + 1, F)``) of the Gram matrix
    ``Q_fg = <Gamma_f, Gamma_g>`` of ``Gamma_f = sum conj(L[m, :])^T L[n, :]``
    over the same pairs, with ``W = L L^H``; the rows ``f < 0`` are
    ``Q_{-f,-g} = conj(Q_fg)``.
    """

    frequencies: np.ndarray
    c: np.ndarray
    Q: np.ndarray


def harmonic_terms(array: ArrayConfig, W: np.ndarray, WRW: np.ndarray) -> HarmonicTerms:
    """The per-covariance coefficients the grid evaluators use.

    ``WRW`` is ``W Rbar W`` ``(M, M)``, or a stack ``(J, M, M)`` of such data
    matrices, which gives ``c`` the shape ``(F, J)``.  Frequencies are grouped
    by exact equality, once per array, so a non-uniform stack only has more
    of them; the uniform M = 7 stack of
    :func:`~tomoments.geometry.make_uniform_array` has 25 rather than 13, as
    its wavenumber differences disagree in the last bit.
    """
    frequencies, members = _frequency_groups(array)
    L = np.linalg.cholesky(W)
    data = np.swapaxes(WRW, -1, -2).reshape(WRW.shape[:-2] + (-1,))
    c = np.moveaxis(data @ members.T, -1, 0)
    Gamma = members @ np.kron(L.conj(), L)
    return HarmonicTerms(frequencies, c, Gamma[frequencies.size // 2 :].conj() @ Gamma.T)


def _half_weights(frequencies: np.ndarray) -> np.ndarray:
    """Weights of the rows ``f >= 0``: 1 at ``f = 0``, 2 above, counting each ``-f`` row."""
    return np.where(frequencies[frequencies.size // 2 :] > 0.0, 2.0, 1.0)


def fit_terms_grid(hz: np.ndarray, terms: HarmonicTerms):
    """Concentration terms y and Y on a height grid, from harmonic coefficients.

    Every basis matrix is a function of the baseline frequency,
    ``H_k[m, n] = h_k(f_mn)``, and must be Hermitian,
    ``h_k(-f) = conj(h_k(f))``.  ``hz (..., K, F)`` holds the phase-weighted
    responses ``h_k(f) e_f``, ``e_f = exp(j z f)``, at ``terms.frequencies``,
    with one leading index per height (or per height and basis).  Then
    ``y_k(z) = Re sum_f h_k(f) e_f c_f``, and Y is the Gram form
    ``Y_ik(z) = Re sum_{f >= 0} w_f conj(h_i(f) e_f) sum_g Q_fg h_k(g) e_g``
    with ``w_f`` 1 at ``f = 0`` and 2 above: as ``h(-f) = conj(h(f))`` and
    ``Q_{-f,-g} = conj(Q_fg)``, the term of -f is the conjugate of that of
    f.  ``hz (Z, K, F)`` gives ``y (Z, K)`` and ``Y (Z, K, K)``;
    ``(Z, S, K, F)`` gives ``(Z, S, K)`` and ``(Z, S, K, K)``.  A ``c`` with a
    trailing column per data matrix gives y a trailing dimension too.  Both
    outputs are real floats.
    """
    F = terms.frequencies.size
    shape = hz.shape[:-1]
    flat = hz.reshape(-1, F)
    y = (flat @ terms.c).real.reshape(shape + terms.c.shape[1:])
    # one (heights * K, F) product for all heights, then one (K, K) product
    # per height.  Unlike the (heights, K * M * M) products of a sum of
    # squares, nothing here is large enough for OpenBLAS to thread: the moment
    # grid on the reference stack (96 heights, K = 5, F = 25) took 0.19-0.20
    # ms unpinned and 0.16-0.19 ms on one thread, on a 2-vCPU Xeon VM
    V = (flat @ terms.Q.T).reshape(shape + (-1,))
    U = hz[..., F // 2 :].conj() * _half_weights(terms.frequencies)
    return y, (U @ np.swapaxes(V, -1, -2)).real


def shape_terms_grid(phi: np.ndarray, phase: np.ndarray, terms: HarmonicTerms):
    """Terms of a one-matrix basis with a real, even response, on a (height, response) grid.

    ``phi (S, F)`` holds S responses sampled at ``terms.frequencies``, each
    real and even in f (a shape characteristic function), so the basis
    matrices are real symmetric, and ``phase (Z, F)`` the table
    ``e_f = exp(j z f)`` of the heights.  Then ``y(z) = Re(e_f c_f) @ phi^T``
    is one real product, and :func:`fit_terms_grid`'s Gram form of Y is the
    quadratic form ``Y(z) = phi^T A(z) phi`` with
    ``A(z)_fg = Re(conj(e_f) Q_fg e_g)`` over the rows ``f >= 0``, those of
    ``f > 0`` counted twice.  A ``c (F, J)`` of J data matrices gives
    ``y (Z, S, J)`` and ``Y (Z, S)``, both real.
    """
    half = slice(terms.frequencies.size // 2, None)
    phi_t = np.ascontiguousarray(phi.T)
    y = np.swapaxes((phase[:, :, None] * terms.c).real.transpose(0, 2, 1) @ phi_t, 1, 2)
    weighted = phi_t[half] * _half_weights(terms.frequencies)[:, None]
    Y = np.empty((phase.shape[0], phi.shape[0]))
    for start in range(0, phase.shape[0], _GRAM_CHUNK):
        rows = slice(start, start + _GRAM_CHUNK)
        A = (phase[rows, half].conj()[:, :, None] * terms.Q * phase[rows, None, :]).real
        Y[rows] = np.einsum("zfs,fs->zs", A @ phi_t, weighted)
    return y, Y


def solve_quadratic(y: np.ndarray, Y: np.ndarray):
    """Solve ``Y alpha = y`` and evaluate the concentrated quadratic form.

    Accepts a single system (1-d y) or a leading batch dimension; a single
    system gives the same bits as the same row of a batch.  Each
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
    if y.ndim == 1:
        return _solve_single(y, Y)
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
    return alpha, objective, bool(np.any(bad))


def _solve_single(y: np.ndarray, Y: np.ndarray):
    """:func:`solve_quadratic` on one system, bit-identical to a row of a batch.

    The same equilibration, screen and LAPACK routines on 2-d inputs,
    without the batch bookkeeping; the golden section calls it per point.
    """
    diag = np.einsum("kk->k", Y)
    scale = np.sqrt(np.where(np.isfinite(diag) & (diag > 0.0), diag, 1.0))
    Ys = Y / (scale[:, None] * scale[None, :])
    ys = y / scale
    eigenvalues = np.linalg.eigvalsh(Ys).tolist()
    bad = eigenvalues[0] <= eigenvalues[-1] * _PINV_CUTOFF or not all(map(math.isfinite, eigenvalues))
    if bad:
        beta = np.linalg.pinv(Ys, rcond=_PINV_CUTOFF) @ ys
    else:
        beta = np.linalg.solve(Ys, ys[:, None])[:, 0]
    return beta / scale, _positive_part(float(np.einsum("k,k->", ys, beta))), bad


def _positive_part(x: float) -> float:
    """``np.maximum(x, 0.0)`` on a Python float: keeps a NaN, maps -0.0 to 0.0."""
    return x if x > 0.0 or x != x else 0.0


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
