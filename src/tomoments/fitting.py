"""Shared machinery for weighted covariance matching.

Both estimators minimize the weighted Frobenius cost
``|| W^(1/2) (Rbar - Rhat(theta)) W^(1/2) ||_F^2`` over models of the form
``Rhat = Phi(z) (sum_i alpha_i H_i) Phi(z)^H`` with ``Phi(z) = diag a(z)``,
real coefficients alpha and a fixed stack of Hermitian basis matrices H_i.
The linear coefficients concentrate in closed form through the quantities

    y_i(z) = tr(H_i^H Phi^H W Rbar W Phi)      (weighted data correlations)
    Y_ik(z) = tr(H_i^H G H_k G), G = Phi^H W Phi

with a point evaluator and grid evaluators shared by both estimators.  The
cost's M^2 x M^2 Kronecker form is never formed; the one M^2 x M^2 matrix is
``kron(conj L, L)``, W = L L^H, built once per prepared covariance.

- Points (the parametric polish, the moment fit's near-ties and both
  fits' final coefficients): :func:`fit_terms`, the one product-form point
  function, builds the terms from M x M products, ``Y_ik = tr(C_i C_k)``
  with ``C_k = G H_k``, which holds only for a Hermitian basis.
- Grids: every basis matrix is a function of the baseline difference,
  ``H_k[m, n] = h_k(kz_m - kz_n)``, so :func:`harmonic_terms` computes
  coefficients over the array's distinct baseline frequencies once per
  covariance, among them the rows ``f >= 0`` of the weighting's Gram
  matrix ``Q``.  :func:`fit_terms_grid` evaluates the terms of any
  Hermitian basis on a whole height grid from them, Y in Gram form, a
  quadratic form in the responses with ``Q``; :func:`shape_terms_grid` does
  the same for a single real, even response per system (the parametric
  shapes over a sigma grid).
- The moment fit's golden-section points: :func:`_point_objective` takes
  :func:`fit_terms_grid`'s Gram form at one height and solves the system
  with one bordered Cholesky factorization.

All return exactly real terms; on the same inputs they agree to rounding.
Near a flat optimum a change of the objective at the rounding level moves
the refined estimates measurably, so the final coefficients and the
Nelder-Mead polish stay on the product form, and the golden section
compares two fast values within a relative ``1e-10`` of each other by their
product-form values: it returns the point of the search on the product form
alone, and every estimate keeps its bits, wherever the fast form is within
half that band of the product form (not on a noiseless covariance, whose
weighting is ill-conditioned).
What every fit needs of the covariance and its weighting alone (``W``,
``W Rbar W``, the cost constant and one :class:`HarmonicTerms` table) is
computed once in a :class:`PreparedCovariance`, which the fits with that
weighting share and which runs the covariance's checks itself.
The concentrated quadratic of one system, :func:`solve_quadratic` on a 1-d
``y``, screens it for the pseudo-inverse fallback by its eigenvalues.  The
batched solve proves that no system of a grid needs the fallback with one
Cholesky factorization of the whole equilibrated stack, shifted so that its
success implies that the eigenvalue screen would pass every system; a stack
that fails it (a rank-deficient or nearly singular system in it) is solved
system by system on the single-system path, with the same bits.  Both
refuse a system with a non-finite entry with a ``ValueError``; none reaches
the pseudo-inverse, whose SVD may not return on one.

The height search both estimators run is settled here too, in the
:class:`_SearchPlan` of :func:`_search_plan`: the interval ``[0, z0_max)``,
the grid, the refinement tolerance, the bracket of a grid node and the
ambiguity rule that bounds or wraps a refined height.  What a search needs
of the config and the array alone is built once and cached, read-only: the
frequency grouping per array (:func:`_frequency_groups`), and the plan per
(config, array), inside each estimator's cached plan.  Each cache keeps the
:data:`_PLAN_CACHE_SIZE` latest entries.

The two derivative-free refinements live here too: the moment fit's
golden section, :func:`golden_section_max`, and the parametric fit's
bounded Nelder-Mead polish, :func:`nelder_mead`, both on Python floats.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import NamedTuple

import numpy as np

from . import _fields
from .geometry import ArrayConfig, _finite_height, baseline_differences, fourier_resolution
from .profiles import CovarianceModel

__all__ = [
    "WEIGHTINGS",
    "DegenerateCovarianceError",
    "PreparedCovariance",
    "fit_terms",
    "HarmonicTerms",
    "harmonic_terms",
    "fit_terms_grid",
    "shape_terms_grid",
    "solve_quadratic",
    "cost_constant",
    "golden_section_max",
    "NelderMeadResult",
    "nelder_mead",
]

WEIGHTINGS = ("identity", "inverse_sample")

_CONDITION_LIMIT = 1e12
_LOADING_FACTOR = 1e-8
_PINV_CUTOFF = 1e-12
# shift of the batched screen's Cholesky certificate, and the largest system
# it is proven for (the moment basis at D = 12 has K = 13); see solve_quadratic
_CERTIFY_SHIFT = 1e-10
_CERTIFY_MAX_K = 13
# relative gap within which the golden section compares two values by the
# product form (a near-tie): the fast point form's largest gap from it over
# 35,784 refinement points, D = 2..8 on five stacks, is 9.4e-14, and
# tests/test_moments.py holds it to a tenth of the band
_TIE_BAND = 1e-10
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


def _weighting_flagged(R_bar: CovarianceModel, choice: str) -> tuple[np.ndarray, bool]:
    """The weighting matrix and whether it was loaded: I for ``"identity"``; for ``"inverse_sample"``
    the inverse of ``R_bar``, diagonally loaded first when singular or of 2-norm condition above 1e12."""
    _fields.choice(choice, WEIGHTINGS, "weighting")
    M = R_bar.M
    if choice == "identity":
        return np.eye(M), False
    R = np.asarray(R_bar.matrix)
    # the screen reads the decomposition the inverse needs; only a loaded matrix takes a second
    eigenvalues, vectors = np.linalg.eigh(R)
    loaded = bool(eigenvalues[0] <= 0.0 or eigenvalues[-1] / eigenvalues[0] > _CONDITION_LIMIT)
    if loaded:
        trace = float(np.real(np.trace(R)))
        if trace <= 0.0:
            raise DegenerateCovarianceError("covariance has nonpositive trace; cannot weight")
        eigenvalues, vectors = np.linalg.eigh(R + (_LOADING_FACTOR * trace / M) * np.eye(M))
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
    coarse grid with spacing ``step``, ``bounds`` those of a refined height
    (None when it wraps), ``refine_tol`` the refinement's tolerance,
    ``frequencies (F,)`` the array's distinct baseline frequencies and
    ``phase (Z, F)`` the table ``exp(j z f)``.
    """

    z_amb: float
    step: float
    z_grid: np.ndarray
    bounds: tuple[float, float] | None
    refine_tol: float
    frequencies: np.ndarray
    phase: np.ndarray

    def bracket(self, index: int) -> tuple[float, float]:
        """The refinement interval of grid node ``index``: one step on either side, within the bounds."""
        lo, hi = self.z_grid[index] - self.step, self.z_grid[index] + self.step
        if self.bounds is not None:
            lo, hi = max(lo, self.bounds[0]), min(hi, self.bounds[1])
        return lo, hi

    def wrap(self, z: float) -> float:
        """``z`` folded into ``[0, z_amb)`` when the search wraps (a ``z`` just below 0 to 0.0, not
        to the ``z_amb`` it rounds to); ``z`` itself otherwise."""
        if self.bounds is not None:
            return z
        z = z % self.z_amb
        return z if z < self.z_amb else 0.0

    def polish_bounds(self) -> list | None:
        """:func:`nelder_mead` bounds of a polish over the height and one free coordinate."""
        return None if self.bounds is None else [self.bounds, (-math.inf, math.inf)]


def _search_plan(config, array: ArrayConfig, grid_points: int | None) -> _SearchPlan:
    """The :class:`_SearchPlan` of a config whose coarse grid field holds ``grid_points``.

    ``z0_max`` defaults to the array's ambiguity, the grid to ``max(8 M,
    ceil(z_amb / (fourier_resolution / 16)))`` points, the tolerance to
    ``1e-4 * z_amb``.  When ``z_amb`` is a whole number of ambiguities the
    steering vectors repeat every ``z_amb`` (Reigber & Moreira, IEEE TGRS
    2000), so a refined height runs free and wraps; otherwise wrapping would
    change the model, so it stays between 0 and the largest float below ``z_amb``.
    """
    if config.z0_max is not None:
        z_amb = config.z0_max
    elif array.ambiguity is None:
        raise ValueError("array has no known ambiguity; set z0_max on the config")
    else:
        z_amb = float(array.ambiguity)
    points = grid_points or max(
        _GRID_PER_CHANNEL * array.M, math.ceil(z_amb / (fourier_resolution(array) / _GRID_PER_RESOLUTION))
    )
    step = z_amb / points
    z_grid = step * np.arange(points)
    frequencies = _frequency_groups(array)[0]
    periodic = array.ambiguity is not None and float(z_amb / array.ambiguity).is_integer()
    return _SearchPlan(
        z_amb=z_amb,
        step=step,
        z_grid=_read_only(z_grid),
        bounds=None if periodic else (0.0, math.nextafter(z_amb, 0.0)),
        refine_tol=config.refine_tol if config.refine_tol is not None else _REFINE_TOL_REL * z_amb,
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
    ``WRW`` is ``W Rbar W``.  y takes ``Re sum H_i conj(T)``, which has the
    bits of ``Re sum conj(H_i) T`` for any stack, so only ``T`` is conjugated.
    Both outputs are real floats; y is a view of a complex array.
    """
    ac = a.conj()
    G = ac[:, None] * W * a[None, :]
    T = ac[:, None] * WRW * a[None, :]
    y = np.einsum("kmn,mn->k", stack, T.conj()).real
    C = G @ stack
    Y = np.einsum("imn,knm->ik", C, C).real
    return y, 0.5 * (Y + Y.T)


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
    data = np.swapaxes(WRW, -1, -2).reshape(WRW.shape[:-2] + (-1,))
    L = np.linalg.cholesky(W)
    Gamma = members @ np.kron(L.conj(), L)
    Q = Gamma[frequencies.size // 2 :].conj() @ Gamma.T
    return HarmonicTerms(frequencies, np.moveaxis(data @ members.T, -1, 0), Q)


class PreparedCovariance:
    """A covariance made ready for weighted fits on one array under one weighting.

    What a fit needs of the covariance and the weighting alone, computed once
    so that every estimator with that weighting shares it: the checked matrix
    ``R``, the weighting ``W`` and whether it was diagonally ``loaded``,
    ``WRW = W R W``, ``cost_constant``, ``tr(R W R W)``, and one coefficient
    table, ``terms``, the :class:`HarmonicTerms` of the data stack
    ``(WRW, W W)`` with its ``traces``.  The moment fits read its column 0,
    the coefficients of ``WRW``; the parametric fits, whose basis holds the
    identity, read both columns and the traces.
    :func:`~tomoments.moments.estimate` and
    :func:`~tomoments.parametric.estimate_parametric` take it in place of the
    covariance and give the same bits as on the covariance itself.  A
    covariance they would refuse is refused here, with the same errors: a
    ``ValueError`` when it does not match the array or has a non-finite
    entry, :class:`DegenerateCovarianceError` when it is numerically zero or
    cannot be weighted, ``numpy.linalg.LinAlgError`` when a factorization
    fails.  Its arrays are read-only.
    """

    def __init__(self, R_bar: CovarianceModel, array: ArrayConfig, weighting: str) -> None:
        self.array = array
        self.weighting = weighting
        if R_bar.M != array.M:
            raise ValueError("covariance and array dimensions disagree")
        self.R = np.asarray(R_bar.matrix)
        if not np.all(np.isfinite(self.R)):
            raise ValueError("covariance contains non-finite entries")
        if np.linalg.norm(self.R) < 1e-30:
            raise DegenerateCovarianceError("covariance is numerically zero")
        W, self.loaded = _weighting_flagged(R_bar, weighting)
        self.W = _read_only(W)
        self.WRW = _read_only(W @ self.R @ W)
        data = np.stack([self.WRW, W @ W])
        self.traces = _read_only(np.trace(data, axis1=-2, axis2=-1).real)
        terms = harmonic_terms(array, W, data)
        self.terms = terms._replace(c=_read_only(terms.c), Q=_read_only(terms.Q))
        self.cost_constant = cost_constant(self.R, W)


def _prepared(R_bar, array: ArrayConfig, weighting: str) -> PreparedCovariance:
    """``R_bar`` ready for a fit under ``weighting`` on ``array``: a
    :class:`~tomoments.profiles.CovarianceModel` is prepared here, a
    :class:`PreparedCovariance` must have been prepared for both."""
    if not isinstance(R_bar, PreparedCovariance):
        return PreparedCovariance(R_bar, array, weighting)
    if R_bar.weighting != weighting:
        raise ValueError(f"covariance prepared for weighting {R_bar.weighting!r}, the fit uses {weighting!r}")
    if R_bar.array != array:
        raise ValueError("covariance prepared for another array")
    return R_bar


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


def _point_objective(h: np.ndarray, terms: HarmonicTerms, bound: float):
    """The concentrated objective at one height at a time, from harmonic coefficients.

    ``h (K, F)`` holds the basis responses at ``terms.frequencies`` (Hermitian,
    as for :func:`fit_terms_grid`), ``terms.c`` one column ``(F,)`` and
    ``bound`` is positive and at least the objective at every height (the
    cost constant is).  Returns a function ``z -> (objective, used_pinv)``;
    a non-finite ``z`` is refused with ``ValueError``.

    Y is :func:`fit_terms_grid`'s Gram form at one height, and so is y, over
    the rows ``f >= 0`` as ``c_{-f} = conj(c_f)``.  The system is bordered,
    ``B = [[Y, y], [y^T, 4 bound]]``, and equilibrated as in
    :func:`solve_quadratic`, which makes the corner 1 and scales the border
    to ``ys / sqrt(4 bound)``.  One Cholesky factorization of the stack
    ``(B - 1e-10 I_K, B)``, the batch path's certificate shift on the leading
    block only, then proves that :func:`_solve_single`'s eigenvalue screen
    would pass the system and gives, in the second factor's last row,
    ``L^-1 ys / sqrt(4 bound)``, so that the objective ``||L^-1 ys||^2`` is
    ``4 bound`` times its squared norm (the corner pivot, one minus that
    norm, stays above 3/4).  A system with a non-finite entry or a
    nonpositive diagonal, or one the factorization refuses, goes to
    :func:`_solve_single`, with its screen, pseudo-inverse fallback and
    ``ValueError``.  The objective agrees with :func:`fit_terms` +
    :func:`solve_quadratic` to rounding, not to the bit.
    """
    K, F = h.shape
    half = F // 2
    weights = _half_weights(terms.frequencies)
    gram = terms.Q.conj().T * weights
    data = weights * terms.c[half:]
    frequencies = terms.frequencies
    system = np.zeros((K + 1, K + 1))
    system[K, K] = 4.0 * bound
    shifts = np.zeros((2, K + 1, K + 1))
    shifts[0, range(K), range(K)] = _CERTIFY_SHIFT

    def at(z: float):
        hz = h * np.exp(1j * _finite_height(z) * frequencies)
        nonnegative = hz[:, half:]
        system[:K, :K] = (nonnegative @ (hz.conj() @ gram).T).real
        system[K, :K] = system[:K, K] = (nonnegative @ data).real
        diag = system.diagonal()
        if np.isfinite(system).all() and diag.min() > 0.0:
            scale = np.sqrt(diag)
            try:
                factors = np.linalg.cholesky(system / np.multiply.outer(scale, scale) - shifts)
            except np.linalg.LinAlgError:
                pass
            else:
                border = factors[1, K, :K]
                return float(border @ border) * system[K, K], False
        return _solve_single(system[K, :K].copy(), system[:K, :K].copy())[1:]

    return at


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
    pseudo-inverse and are flagged.  A batch of K <= 13 unknowns first
    tries to certify that no system falls back with one Cholesky
    factorization of the whole equilibrated stack, shifted by 1e-10: if it
    succeeds, the stack is solved at once and no eigenvalue is computed.
    A stack that fails it, or has more unknowns, is solved system by system
    on the single-system path, the one place the eigenvalue screen and the
    pseudo-inverse live.  Returns ``(alpha,
    objective, used_pinv)`` with the objective ``y^T alpha`` clipped at
    zero.  A system with a non-finite entry in ``y``, ``Y`` or the
    equilibrated ``Y`` is refused with a ``ValueError``; a batch names its
    index and refuses it before any LAPACK call (a Cholesky factorization
    can complete on an infinite diagonal), a single system once the
    screen or the objective shows it.
    """
    y = np.asarray(y, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if y.ndim == 1:
        return _solve_single(y, Y)
    diag = np.einsum("zkk->zk", Y)
    scale = np.sqrt(np.where(np.isfinite(diag) & (diag > 0.0), diag, 1.0))
    Ys = Y / (scale[:, :, None] * scale[:, None, :])
    ys = y / scale
    # scale is finite and positive, so a non-finite Y gives a non-finite Ys
    if not (np.isfinite(Ys).all() and np.isfinite(y).all()):
        finite = np.isfinite(Ys).all(axis=(-2, -1)) & np.isfinite(y).all(axis=-1)
        raise ValueError(f"system {int(np.argmin(finite))} of the batch has a non-finite entry")
    K = Ys.shape[-1]
    if K <= _CERTIFY_MAX_K:
        # The certificate: if the Cholesky factorization of Ys - tau I
        # completes in floating point, its factor satisfies
        # R^T R = Ys - tau I + E with |E| <= gamma_{K+1} |R^T| |R| (Higham,
        # Accuracy and Stability of Numerical Algorithms, 2nd ed., SIAM 2002,
        # ch. 10).  A completed factorization means a positive diagonal, which
        # equilibration has made 1 to a few ulps, so the columns of R have
        # norm about 1, ||E||_2 <~ K^2 eps and lambda_min(Ys) >= tau - K^2 eps.
        # The unit diagonal also bounds lambda_max(Ys) by the trace K, and
        # eigvalsh is accurate to about K eps ||Ys||_2 <= K^2 eps.  At K <= 13
        # both errors are below 3e-14, so eigvalsh's smallest eigenvalue is at
        # least 1e-10 - 6e-14, about 8 times the largest possible cutoff
        # 1e-12 * lambda_max <= 1.3e-11: the screen of _solve_single would
        # pass every system of a certified stack.  tau stays far below the
        # conditioning of the estimators' grids: the smallest equilibrated
        # ratio measured is 1.3e-7 (moment basis, D = 8, reference stack).
        # Every grid measured passes: 360 at D = 2..8 on the reference stack,
        # 560 at D = 10 and 12 on uniform stacks of M = 8..10, and all 1276
        # moment grids of the benchmark's workloads.
        try:
            np.linalg.cholesky(Ys - _CERTIFY_SHIFT * np.eye(K))
        except np.linalg.LinAlgError:
            pass
        else:
            beta = np.linalg.solve(Ys, ys[..., None])[..., 0]
            return beta / scale, np.clip(np.einsum("zk,zk->z", ys, beta), 0.0, None), False
    alpha, objective, used_pinv = np.empty_like(ys), np.empty(ys.shape[0]), False
    for i in range(ys.shape[0]):
        alpha[i], objective[i], bad = _solve_single(y[i], Y[i])
        used_pinv = used_pinv or bad
    return alpha, objective, used_pinv


def _solve_single(y: np.ndarray, Y: np.ndarray):
    """:func:`solve_quadratic` on one system, bit-identical to a row of a certified batch.

    The same equilibration and LAPACK routines on 2-d inputs, without the
    batch bookkeeping, and the eigenvalue screen: on one system a Cholesky
    certificate costs as much as ``eigvalsh``.  The moment fit calls it for
    its final coefficients, for the product-form points of the golden
    section's near-ties and for a fast golden-section point whose
    certificate refuses it; a batch that is not certified calls it per
    system.
    """
    diag = np.einsum("kk->k", Y)
    scale = np.sqrt(np.where(np.isfinite(diag) & (diag > 0.0), diag, 1.0))
    Ys = Y / (scale[:, None] * scale[None, :])
    ys = y / scale
    # the finiteness test runs only where a non-finite entry can show: a
    # non-finite Ys makes eigvalsh raise or return a non-finite eigenvalue
    # (so the system is bad, and pinv's SVD must not see it), a non-finite
    # ys a non-finite objective
    try:
        eigenvalues = np.linalg.eigvalsh(Ys).tolist()
    except np.linalg.LinAlgError:
        _refuse_non_finite(ys, Ys)
        raise
    bad = eigenvalues[0] <= eigenvalues[-1] * _PINV_CUTOFF or not all(map(math.isfinite, eigenvalues))
    if bad:
        _refuse_non_finite(ys, Ys)
        beta = np.linalg.pinv(Ys, rcond=_PINV_CUTOFF) @ ys
    else:
        beta = np.linalg.solve(Ys, ys[:, None])[:, 0]
    objective = float(np.einsum("k,k->", ys, beta))
    if not math.isfinite(objective):
        _refuse_non_finite(ys, Ys)
    return beta / scale, _positive_part(objective), bad


def _refuse_non_finite(ys: np.ndarray, Ys: np.ndarray) -> None:
    """Raise ``ValueError`` if one system's ``ys`` or ``Ys`` has a non-finite entry."""
    if not (np.isfinite(Ys).all() and np.isfinite(ys).all()):
        raise ValueError("the system has a non-finite entry")


def _positive_part(x: float) -> float:
    """``np.maximum(x, 0.0)`` on a Python float: keeps a NaN, maps -0.0 to 0.0."""
    return x if x > 0.0 or x != x else 0.0


def cost_constant(R: np.ndarray, W: np.ndarray) -> float:
    """Model-independent cost term ``tr(Rbar W Rbar W)``."""
    X = W @ R
    return float(np.real(np.einsum("nm,mn->", X, X)))


def golden_section_max(f, lo: float, hi: float, tol: float, exact=None) -> float:
    """Golden-section maximizer of a unimodal function on [lo, hi].

    The search returns a point that depends only on the outcomes of its
    comparisons.  With ``exact``, ``f`` is a fast form of it: two values of
    ``f`` within ``_TIE_BAND`` of the larger magnitude (or a NaN) are
    compared by their ``exact`` values instead, each point's computed at
    most once.  Where ``f`` is within a relative half of the band of
    ``exact``, the search returns the point of the search on ``exact`` alone.
    """
    exact_at = {}

    def larger(c, fc, d, fd) -> bool:
        if exact is None or abs(fc - fd) > _TIE_BAND * max(abs(fc), abs(fd)):
            return fc > fd
        for z in (c, d):
            if z not in exact_at:
                exact_at[z] = exact(z)
        return exact_at[c] > exact_at[d]

    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > tol:
        if larger(c, fc, d, fd):
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = f(d)
    return 0.5 * (lo + hi)


class NelderMeadResult(NamedTuple):
    """End of a :func:`nelder_mead` search: the best vertex ``x``, the number
    of evaluations ``nfev`` and of iterations ``nit`` (counted from 1), and
    ``success``, false when the evaluation or iteration budget ran out."""

    x: tuple[float, ...]
    nfev: int
    nit: int
    success: bool


class _BudgetSpent(Exception):
    """The evaluation budget ran out, possibly in the middle of an iteration."""


def _clip(x: float, lo: float, hi: float) -> float:
    """``numpy.clip`` on a finite Python float, signed zeros included: -0.0 clips to a bound 0.0."""
    x = x if x > lo else lo
    return x if x < hi else hi


def _sorted(sim: list, fsim: list) -> tuple[list, list]:
    """Vertices and values by value, stable and NaN last, as ``numpy.argsort`` orders a simplex."""
    order = sorted(range(len(fsim)), key=lambda k: (fsim[k] != fsim[k], fsim[k]))
    return [sim[k] for k in order], [fsim[k] for k in order]


def _line(a: float, u, b: float, v) -> tuple[float, ...]:
    """The point ``a u + b v``, coordinate by coordinate."""
    return tuple(a * x + b * y for x, y in zip(u, v))


def nelder_mead(f, simplex, bounds, xatol: float, fatol: float, maxiter: int, maxfev: int) -> NelderMeadResult:
    """Minimize ``f`` by the Nelder-Mead simplex method from the given simplex.

    The method of Nelder & Mead (Comput. J. 1965) with the fixed
    coefficients reflection 1, expansion 2, contraction 1/2 and shrink 1/2
    (the non-adaptive case of Gao & Han, Comput. Optim. Appl. 2012), on
    Python floats.  Its steps, their order and arithmetic, the bound
    handling and the stopping test are those of the bounded Nelder-Mead of
    the usual Python optimization library, which ``tests/test_fitting.py``
    runs as its oracle: the same vertices to the bit and the same
    evaluation and iteration counts.  ``simplex`` holds N + 1 vertices of N
    coordinates, and ``f`` takes a vertex (a tuple of floats) and returns a
    float.  ``bounds`` is None or one ``(lo, hi)`` pair per
    coordinate (infinite for a free one): vertices above ``hi`` are
    reflected to ``2 hi - v``, then every vertex and trial point is clipped.
    The search stops when every vertex is within ``xatol`` of the best in
    each coordinate and within ``fatol`` of its value, or when ``maxiter``
    iterations or ``maxfev`` evaluations are spent, the last possibly in the
    middle of an iteration.
    """
    n = len(simplex) - 1
    sim = [tuple(map(float, v)) for v in simplex]
    if bounds is None:
        def clip(v):
            return v
    else:
        def clip(v):
            return tuple(_clip(x, lo, hi) for x, (lo, hi) in zip(v, bounds))

        sim = [clip(tuple(2 * hi - x if x > hi else x for x, (_, hi) in zip(v, bounds))) for v in sim]

    nfev = 0

    def evaluate(v):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return f(v)

    fsim = [math.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = evaluate(sim[k])
    except _BudgetSpent:
        pass
    sim, fsim = _sorted(sim, fsim)

    nit = 1
    while nfev < maxfev and nit < maxiter:
        try:
            best, worst = sim[0], sim[-1]
            if all(abs(x - b) <= xatol for v in sim[1:] for x, b in zip(v, best)) and all(
                abs(fsim[0] - fv) <= fatol for fv in fsim[1:]
            ):
                break
            # the centroid of all but the worst vertex, summed in order as numpy
            # reduces rows (sum() would start at 0 and, from Python 3.12, compensate)
            xbar = [functools.reduce(operator.add, column) / n for column in zip(*sim[:-1])]
            xr = clip(_line(2, xbar, -1, worst))  # reflection
            fxr = evaluate(xr)
            if fxr < fsim[0]:
                xe = clip(_line(3, xbar, -2, worst))  # expansion
                fxe = evaluate(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    xc = clip(_line(1.5, xbar, -0.5, worst))  # outside contraction
                    fxc = evaluate(xc)
                    shrink = not fxc <= fxr
                else:
                    xc = clip(_line(0.5, xbar, 0.5, worst))  # inside contraction
                    fxc = evaluate(xc)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = clip(tuple(b + 0.5 * (x - b) for x, b in zip(sim[j], best)))
                        fsim[j] = evaluate(sim[j])
            nit += 1
        except _BudgetSpent:
            pass
        sim, fsim = _sorted(sim, fsim)

    return NelderMeadResult(sim[0], nfev, nit, nfev < maxfev and nit < maxiter)
