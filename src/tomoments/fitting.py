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

- Exact points (the near-ties of both refinements, both fits' final
  coefficients, and on an ill-conditioned weighting the moment grid and
  every point of either refinement):
  :func:`fit_terms`, the one product-form point function, builds the terms
  from M x M products, ``Y_ik = tr(C_i C_k)`` with ``C_k = G H_k``, which
  holds only for a Hermitian basis.  :func:`shape_terms_product` builds
  them the same way for the parametric grid on an ill-conditioned
  weighting, for all heights and shapes in one batch.
- Grids: every basis matrix is a function of the baseline difference,
  ``H_k[m, n] = h_k(kz_m - kz_n)``, so :func:`harmonic_terms` computes
  coefficients over the array's distinct baseline frequencies (grouped to
  rounding, :func:`_frequency_groups`) once per covariance, among them the
  rows ``f >= 0`` of the weighting's Gram matrix ``Q``.
  :func:`fit_terms_grid` evaluates the terms of any
  Hermitian basis on a whole height grid from them, Y in Gram form, a
  quadratic form in the responses with ``Q``; :func:`shape_terms_grid` does
  the same for a single real, even response per system (the parametric
  shapes over a sigma grid).
- The moment fit's golden section: on the bracket of its best grid node,
  :func:`_objective_interpolant` solves :func:`fit_terms_grid`'s terms at
  the bracket's 21 Chebyshev-Lobatto nodes (:func:`_interpolant_nodes`) as
  one batch, and :func:`_chebyshev_interpolant` turns the values into a
  Chebyshev series with one fixed DCT-I matrix and evaluates it by
  Clenshaw's recurrence on Python floats.  It is refused when a node needs
  the pseudo-inverse or the series' last two coefficients fail a tail test.
- The parametric polish's points: ``PreparedCovariance.shape_point_form``
  folds :func:`shape_terms_grid`'s Gram form at one (height, spread) point
  into one real quadratic form ``[G; D]`` in the float view of the shape's
  phase-weighted responses at the frequencies ``f >= 0``, built once per
  covariance at the first parametric fit that asks.
- Both fast forms of a refinement, and both grids' Gram forms, run only on a
  weighting of condition number at most ``_FAST_CONDITION_LIMIT`` (1e3),
  which :class:`PreparedCovariance` records: forming the Gram form squares
  the condition.

All return exactly real terms; on the same inputs they agree to rounding.
Near a flat optimum a change of the objective at the rounding level moves
the refined estimates measurably, so the final coefficients stay on the
product form, and both refinements, the golden section and the Nelder-Mead
polish, decide a test whose fast values are within a relative ``1e-10`` of
each other (a near-tie, :func:`_holds`) on their product-form values: each
returns the point of its search on the product form alone, and every
estimate keeps its bits, wherever the fast form is within half that band of
the product form.  On an ill-conditioned weighting (a noiseless covariance,
or one sampled from fewer snapshots than acquisitions) the moment grid, the
golden section, the parametric grid and the polish run on the product form
alone.
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

The two derivative-free refinements live here too, with the tie rule they
share: the moment fit's golden section, :func:`golden_section_max`, and the
parametric fit's bounded Nelder-Mead polish, :func:`nelder_mead`, both on
Python floats.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import NamedTuple

import numpy as np

from . import _fields
from .geometry import ArrayConfig, baseline_differences, fourier_resolution
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
    "shape_terms_product",
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
# relative gap within which the two refinements, the moment fit's golden
# section and the parametric fit's Nelder-Mead polish, decide a test on the
# product-form values rather than the fast ones (a near-tie; see _holds):
# the golden section's interpolant stays within 1.5e-13 of the product form
# (see _INTERPOLANT_NODES), and tests/test_moments.py holds it to a tenth of
# the band on five stacks at D = 2..8 and N = 1000, and to half of it on
# weightings up to _FAST_CONDITION_LIMIT; tests/test_parametric.py holds the
# polish's fast points to a tenth up to that limit
_TIE_BAND = 1e-10
# the largest 2-norm condition number of the weighting on which the polish
# takes Gram-form points, the parametric fit its Gram-form grid and the
# moment fit its Gram-form grid and interpolant.  Forming a Gram matrix
# squares the condition (Bjorck, Numerical Methods for Least Squares
# Problems, SIAM 1996): up to this limit the polish's points stay within
# 9e-13 of the product form (tests/test_parametric.py), the benchmark's
# weightings reach 92, and the noiseless bias scan's, far above it, move its
# rows without it; a moment fit above it returns the product-form search's
# height (tests/test_moments.py), and a parametric grid the product-form
# grid's best node (tests/test_parametric.py)
_FAST_CONDITION_LIMIT = 1e3
# the moment fit's fast form on a bracket: the Chebyshev interpolant through
# this many Chebyshev-Lobatto nodes, refused when either of its last two
# coefficients exceeds _INTERPOLANT_TAIL of the largest node value (the tail
# test of Battles & Trefethen, SIAM J. Sci. Comput. 2004).  On the reference
# stack, D = 4, 6 and 8, full and symmetric, 15 sampled covariances at each of
# N = 100, 1000 and 10000, its largest gap from the product form over 23
# heights per bracket was 8.4e-14 at 21 nodes, 6.4e-12 at 17 and 2.7e-9 at 13;
# at N = 20 the test refused 6 of 120 brackets, whose gaps reached 6.2e-12,
# and the largest gap of an accepted one was 1.5e-13.  The default grid makes
# a bracket at most 1/8 of a Fourier resolution cell, where the objective is
# smooth; an exact point source under inverse-sample weighting peaks too
# sharply there, and the test refuses its bracket
_INTERPOLANT_NODES = 21
_INTERPOLANT_TAIL = 1e-12
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# The height grid: at least 8 points per acquisition and 16 per resolution cell.
_GRID_PER_CHANNEL = 8
_GRID_PER_RESOLUTION = 16
_REFINE_TOL_REL = 1e-4
# complex elements of shape_terms_grid's (heights, F // 2 + 1, F) temporary,
# which sets how many heights a chunk takes: 256 KB, so the reference stack's
# 96 heights (F = 13) run as one chunk of 140 KB, with a (heights, F // 2 + 1,
# S) real temporary of 344 KB at S = 64, while a stack of many more
# frequencies takes fewer heights at a time (17 at F = 43)
_GRAM_ELEMENTS = 1 << 14
# units in the last place of the largest |kz| within which two baseline
# differences are one frequency (see _frequency_groups).  Each kz_m is rounded
# once (twice for make_uniform_array's 2 pi n / z_amb), so it is at most one
# unit off its intended value, and each difference is rounded once more, by at
# most half a unit of a value up to twice the largest |kz|: two differences of
# one intended baseline are at most 6 units apart, and on the uniform stacks
# of M = 2..15 at six z_amb from 1 m to 10 km they were at most 3.  A group's
# representative is within this tolerance of each of its differences, so the
# phase exp(j z f) a fast form takes at it is off by at most z0_max *
# tolerance: 8.9e-14 rad at z0_max = 100 m on the reference stack, which
# moves a term by about a relative 1e-13, far inside half of _TIE_BAND
_BASELINE_ULPS = 16
# (config, array) pairs whose search tables stay cached: a sweep uses one
# array and up to four estimator configs; a moment plan holds about 0.25 MB
_PLAN_CACHE_SIZE = 16


class DegenerateCovarianceError(ValueError):
    """Raised when a covariance input is numerically zero or unusable."""


def _weighting_flagged(R_bar: CovarianceModel, choice: str) -> tuple[np.ndarray, bool, float]:
    """The weighting matrix, whether it was loaded and its 2-norm condition number: I and 1 for
    ``"identity"``; for ``"inverse_sample"`` the inverse of ``R_bar``, diagonally loaded first when
    singular or of condition above 1e12, and the condition of the matrix it inverts."""
    _fields.choice(choice, WEIGHTINGS, "weighting")
    M = R_bar.M
    if choice == "identity":
        return np.eye(M), False, 1.0
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
    return 0.5 * (W + W.conj().T), loaded, float(eigenvalues[-1] / eigenvalues[0])


def _check_search_options(config) -> None:
    """Validate the weighting and height-search fields both estimator configs share.

    The fields set are stored normalized (floats) on the frozen config.
    """
    _fields.choice(config.weighting, WEIGHTINGS, "weighting")
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
    that assigns each flattened ``(m, n)`` pair to one of them.

    Differences ``kz_m - kz_n`` are distinct when they differ by more than
    ``_BASELINE_ULPS`` units in the last place of the largest ``|kz|``: the
    sorted ``|kz_m - kz_n|`` form groups, each of the values within that of
    its smallest, which represents it.  The frequencies are the
    representatives and their negatives, so they are sorted, in exact pairs
    ``+-f``, with 0 exactly at ``F // 2``; a pair joins the group of its
    ``|kz_m - kz_n|`` at the sign of its difference.  A uniform stack of M
    acquisitions has ``2 M - 1`` of them.
    """
    differences = baseline_differences(array).reshape(-1)
    magnitudes = np.abs(differences)
    tolerance = _BASELINE_ULPS * float(np.spacing(np.abs(array.kz).max()))
    representatives = [0.0]
    for value in np.sort(magnitudes).tolist():
        if value - representatives[-1] > tolerance:
            representatives.append(value)
    half = np.array(representatives)
    group = np.searchsorted(half, magnitudes, side="right") - 1
    frequencies = np.concatenate((-half[:0:-1], half))
    pair = half.size - 1 + np.where(differences < 0.0, -group, group)
    members = (pair == np.arange(frequencies.size)[:, None]).astype(float)
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


def _search_plan(config, array: ArrayConfig) -> _SearchPlan:
    """The :class:`_SearchPlan` of a config on ``array``.

    ``z0_max`` defaults to the array's ambiguity, the tolerance to ``1e-4 *
    z_amb``; the grid has ``max(8 M, ceil(z_amb / (fourier_resolution /
    16)))`` points.  When ``z_amb`` is a whole number of ambiguities the
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
    points = max(
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

    ``frequencies (F,)`` are the baseline differences ``f_mn = kz_m - kz_n``,
    grouped to rounding by :func:`_frequency_groups`, one representative per
    group, sorted and in exact pairs ``+-f``; ``c (F,)`` holds ``c_f``, the
    sum of ``(W Rbar W)_nm`` over the pairs of the group of ``f`` (``(F, J)``
    for a stack of J data matrices).  ``Q`` holds the
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
    to rounding, once per array (:func:`_frequency_groups`: differences within
    16 units in the last place of the largest ``|kz|`` are one frequency), so
    a non-uniform stack only has more of them; the uniform M = 7 stack of
    :func:`~tomoments.geometry.make_uniform_array` has 2 M - 1 = 13, although
    its wavenumber differences of one baseline disagree in the last bit.
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
    ``R``, the weighting ``W``, whether it was diagonally ``loaded`` and its
    2-norm ``condition`` number (1 for the identity),
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
        W, self.loaded, self.condition = _weighting_flagged(R_bar, weighting)
        self.W = _read_only(W)
        self.WRW = _read_only(W @ self.R @ W)
        data = np.stack([self.WRW, W @ W])
        self.traces = _read_only(np.trace(data, axis1=-2, axis2=-1).real)
        terms = harmonic_terms(array, W, data)
        self.terms = terms._replace(c=_read_only(terms.c), Q=_read_only(terms.Q))
        self.cost_constant = cost_constant(self.R, W)

    @functools.cached_property
    def shape_point_form(self) -> np.ndarray:
        """:func:`shape_terms_grid`'s terms at one point as one real matrix ``[G; D]``.

        Let ``x`` be the float view (real and imaginary parts interleaved)
        of ``v = (1, e_f phi_f for f > 0)`` over the ``F // 2 + 1``
        frequencies ``f >= 0`` of ``terms``, for the phases ``e_f = exp(j z
        f)`` of a height and a real, even response ``phi`` with ``phi_0 =
        1`` (a shape characteristic function).  Then the shape's own term is
        ``Y = x^T G x`` and its data terms, one per column of ``terms.c``,
        are ``y = D x``: G ``(n, n)``, ``n = 2 (F // 2 + 1)``, is the real
        symmetric matrix of :func:`fit_terms_grid`'s Gram form with the
        columns ``g < 0`` of ``Q`` folded onto ``v`` (``v_{-g} =
        conj(v_g)``), and D ``(J, n)`` holds ``Re(v @ (w c))`` over the rows
        ``f >= 0``, with ``w`` 1 at ``f = 0`` and 2 above.  Built at the
        first fit that asks, so the parametric fits on this covariance share
        it and a moment fit builds none; read-only.
        """
        half = self.terms.frequencies.size // 2
        weights = _half_weights(self.terms.frequencies)
        # Y = Re sum_{f >= 0} w_f conj(v_f) (A v + B conj(v))_f, with A the
        # columns g >= 0 of Q and B those of -g, less the column g = 0 in A
        A = self.terms.Q[:, half:]
        B = self.terms.Q[:, half::-1] * (np.arange(half + 1) > 0)
        blocks = np.empty((half + 1, 2, half + 1, 2))
        blocks[:, 0, :, 0], blocks[:, 0, :, 1] = (A + B).real, (B - A).imag
        blocks[:, 1, :, 0], blocks[:, 1, :, 1] = (A + B).imag, (A - B).real
        folded = (weights[:, None, None, None] * blocks).reshape(2 * half + 2, -1)
        data = weights[:, None] * self.terms.c[half:]
        D = np.stack((data.real, -data.imag), axis=1).reshape(folded.shape[0], -1).T
        return _read_only(np.concatenate((0.5 * (folded + folded.T), D)))


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
    # grid on the reference stack (96 heights, K = 4, F = 13) took 0.063-0.067
    # ms both unpinned and on one thread, on a 2-vCPU Xeon VM
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
    chunk = max(1, _GRAM_ELEMENTS // terms.Q.size)
    for start in range(0, phase.shape[0], chunk):
        rows = slice(start, start + chunk)
        A = (phase[rows, half].conj()[:, :, None] * terms.Q * phase[rows, None, :]).real
        Y[rows] = np.einsum("zfs,fs->zs", A @ phi_t, weighted)
    return y, Y


def shape_terms_product(shapes: np.ndarray, steering: np.ndarray, W: np.ndarray, WRW: np.ndarray):
    """:func:`shape_terms_grid`'s terms in :func:`fit_terms`'s product form, on a (height, shape) grid.

    ``shapes (S, M, M)`` holds real symmetric basis matrices ``B_s`` and
    ``steering (Z, M)`` the steering vectors of the heights.  With
    ``G = Phi^H W Phi`` and ``T = Phi^H (W Rbar W) Phi`` at every height,
    ``y (Z, S, 2)`` holds the data term ``tr(B_s T)`` and the cross term
    ``tr(G B_s G)`` with the identity, and ``Y (Z, S)`` the shape's own term
    ``tr(G B_s G B_s)``: the terms of ``fit_terms`` on the basis ``(B_s, I)``,
    to rounding, from one ``(Z, S, M, M)`` product ``C = G B_s`` instead of a
    call per node.  Both outputs are real.
    """
    phases = steering.conj()[:, :, None] * steering[:, None, :]
    G = phases * W
    flat = shapes.reshape(shapes.shape[0], -1).T
    C = G[:, None] @ shapes
    y_data = (phases * WRW).real.reshape(G.shape[0], -1) @ flat
    y_cross = np.einsum("zsmn,znm->zs", C, G).real
    return np.stack((y_data, y_cross), axis=-1), np.einsum("zsmn,zsnm->zs", C, C).real


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
    its final coefficients and for the product-form points of the golden
    section; a batch that is not certified calls it per system.
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


def _holds(test, a: list, b: list, gap: float, exact) -> bool:
    """``test`` on the values ``a`` and ``b``, where ``gap`` of their fast values decides it.

    The tie rule of both refinements, on values kept as lists ``[fast
    value, point, exact value or None until a test needs it]``: the fast
    values settle the test when ``gap`` is beyond ``_TIE_BAND`` of the
    larger magnitude, and never when it is a NaN; else, and only with an
    ``exact`` form, the test runs on the exact values of the two points,
    each taken at most once and kept in its list.  Where each fast value is
    within a relative half of the band of its exact value, the two settle it
    alike.
    """
    if exact is None or (abs(gap) > _TIE_BAND * abs(a[0]) and abs(gap) > _TIE_BAND * abs(b[0])):
        return test(a[0], b[0])
    for value in (a, b):
        if value[2] is None:
            value[2] = exact(value[1])
    return test(a[2], b[2])


def _chebyshev_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n + 1 Chebyshev-Lobatto points ``x_j = cos(pi j / n)`` of [-1, 1], from 1 down to -1,
    and the DCT-I matrix ``(n + 1, n + 1)`` that maps values at them to the coefficients of the
    interpolating Chebyshev series (Trefethen, Approximation Theory and Approximation Practice,
    SIAM 2013, ch. 3)."""
    points = np.sin(0.5 * math.pi * (n - 2.0 * np.arange(n + 1)) / n)  # symmetric, 0 exactly at n / 2
    dct = (2.0 / n) * np.cos(math.pi * (np.multiply.outer(np.arange(n + 1), np.arange(n + 1)) % (2 * n)) / n)
    dct[:, [0, n]] *= 0.5
    dct[[0, n]] *= 0.5
    return _read_only(points), _read_only(dct)


_LOBATTO, _DCT_I = _chebyshev_tables(_INTERPOLANT_NODES - 1)


def _interpolant_nodes(lo: float, hi: float) -> np.ndarray:
    """The heights of :func:`_chebyshev_interpolant`'s nodes on the bracket ``[lo, hi]``, hi first."""
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * _LOBATTO


def _chebyshev_interpolant(values: np.ndarray, lo: float, hi: float):
    """The Chebyshev interpolant of ``values`` at :func:`_interpolant_nodes` of ``[lo, hi]``.

    Returns a function of a height that evaluates the series by Clenshaw's
    recurrence on Python floats, or None when the tail test refuses it:
    when either of its last two coefficients exceeds ``_INTERPOLANT_TAIL``
    of the largest ``|values|``, the function is not resolved on the bracket.
    """
    coefficients = _DCT_I @ values
    if np.abs(coefficients[-2:]).max() > _INTERPOLANT_TAIL * np.abs(values).max():
        return None
    *series, first = coefficients[::-1].tolist()
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)

    def at(z: float) -> float:
        x = (z - mid) / half
        two_x, b1, b2 = 2.0 * x, 0.0, 0.0
        for c in series:
            b1, b2 = c + two_x * b1 - b2, b1
        return first + x * b1 - b2

    return at


def _objective_interpolant(y: np.ndarray, Y: np.ndarray, lo: float, hi: float):
    """The concentrated objective's :func:`_chebyshev_interpolant` on ``[lo, hi]``, from its
    terms ``y (n, K)`` and ``Y (n, K, K)`` at the n :func:`_interpolant_nodes`, solved as one
    batch; None when a node needs the pseudo-inverse or the tail test refuses it.  A node with
    a non-finite term is refused with the batch's ``ValueError``."""
    _, values, used_pinv = solve_quadratic(y, Y)
    return None if used_pinv else _chebyshev_interpolant(values, lo, hi)


def golden_section_max(f, lo: float, hi: float, tol: float, exact=None) -> float:
    """Golden-section maximizer of a unimodal function on [lo, hi].

    The search returns a point that depends only on the outcomes of its
    comparisons.  With ``exact``, ``f`` is a fast form of it: two values of
    ``f`` that the tie rule of :func:`_holds` leaves open (within
    ``_TIE_BAND`` of the larger magnitude, or a NaN) are compared by their
    ``exact`` values instead, each point's computed at most once.  Where
    ``f`` is within a relative half of the band of ``exact``, the search
    returns the point of the search on ``exact`` alone.
    """
    c = hi - _INV_PHI * (hi - lo)
    d = lo + _INV_PHI * (hi - lo)
    fc, fd = [f(c), c, None], [f(d), d, None]
    while hi - lo > tol:
        if _holds(operator.gt, fc, fd, fc[0] - fd[0], exact):
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = [f(c), c, None]
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = [f(d), d, None]
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


def _nan_last_less(u: float, v: float) -> bool:
    """Whether value ``u`` sorts before ``v`` in a simplex: by value, NaN last, as ``numpy.argsort``."""
    return u < v or (v != v and u == u)


def _line(a: float, u, b: float, v) -> tuple[float, ...]:
    """The point ``a u + b v``, coordinate by coordinate."""
    return tuple([a * x + b * y for x, y in zip(u, v)])


def nelder_mead(
    f, simplex, bounds, xatol: float, fatol: float, maxiter: int, maxfev: int, exact=None
) -> NelderMeadResult:
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

    With ``exact``, ``f`` is a fast form of it, and every test of values
    runs under the tie rule of :func:`_holds`: the comparisons of the
    trial points, the stable, NaN-last order of the simplex and the
    ``fatol`` test, which turns on the sign of ``|f0 - fk| - fatol``.  A
    test the fast values leave open runs on the ``exact`` values of the
    same points, each taken at most once and not counted in ``nfev``.
    Where ``f`` is within a relative half of the band of ``exact``, the
    search returns the vertex, counts and verdict of the search on
    ``exact`` alone.
    """
    n = len(simplex) - 1
    sim = [tuple(map(float, v)) for v in simplex]
    if bounds is None:
        def clip(v):
            return v
    else:
        def clip(v):
            return tuple([_clip(x, lo, hi) for x, (lo, hi) in zip(v, bounds)])

        sim = [clip(tuple(2 * hi - x if x > hi else x for x, (_, hi) in zip(v, bounds))) for v in sim]

    nfev = 0

    # a value is the list [fast value, point, exact value or None] of
    # _holds; a shrink cut short by the budget moves a vertex and leaves it
    # the value of its old point
    def evaluate(v) -> list:
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return [f(v), v, None]

    def less(a, b) -> bool:
        return _holds(operator.lt, a, b, a[0] - b[0], exact)

    def within_fatol(u: float, v: float) -> bool:
        return abs(u - v) <= fatol

    def order() -> None:
        """Sort the simplex in place, stable and NaN last (an insertion sort)."""
        for k in range(1, n + 1):
            while k and _holds(_nan_last_less, fsim[k], fsim[k - 1], fsim[k][0] - fsim[k - 1][0], exact):
                sim[k - 1], sim[k], fsim[k - 1], fsim[k] = sim[k], sim[k - 1], fsim[k], fsim[k - 1]
                k -= 1

    # a vertex the budget leaves unevaluated keeps an infinite value, exact too
    fsim = [[math.inf, v, math.inf] for v in sim]
    try:
        for k in range(n + 1):
            fsim[k] = evaluate(sim[k])
    except _BudgetSpent:
        pass
    order()

    nit = 1
    while nfev < maxfev and nit < maxiter:
        try:
            best, worst = sim[0], sim[-1]
            if all(abs(x - b) <= xatol for v in sim[1:] for x, b in zip(v, best)) and all(
                _holds(within_fatol, fsim[0], value, abs(fsim[0][0] - value[0]) - fatol, exact) for value in fsim[1:]
            ):
                break
            # the centroid of all but the worst vertex, summed in order as numpy
            # reduces rows (sum() would start at 0 and, from Python 3.12, compensate)
            xbar = [functools.reduce(operator.add, column) / n for column in zip(*sim[:-1])]
            xr = clip(_line(2, xbar, -1, worst))  # reflection
            r = evaluate(xr)
            if less(r, fsim[0]):
                xe = clip(_line(3, xbar, -2, worst))  # expansion
                e = evaluate(xe)
                sim[-1], fsim[-1] = (xe, e) if less(e, r) else (xr, r)
            elif less(r, fsim[-2]):
                sim[-1], fsim[-1] = xr, r
            else:
                if less(r, fsim[-1]):
                    xc = clip(_line(1.5, xbar, -0.5, worst))  # outside contraction
                    c = evaluate(xc)
                    shrink = not _holds(operator.le, c, r, c[0] - r[0], exact)
                else:
                    xc = clip(_line(0.5, xbar, 0.5, worst))  # inside contraction
                    c = evaluate(xc)
                    shrink = not less(c, fsim[-1])
                if not shrink:
                    sim[-1], fsim[-1] = xc, c
                else:
                    for j in range(1, n + 1):
                        sim[j] = clip(tuple([b + 0.5 * (x - b) for x, b in zip(sim[j], best)]))
                        fsim[j] = evaluate(sim[j])
            nit += 1
        except _BudgetSpent:
            pass
        order()

    return NelderMeadResult(sim[0], nfev, nit, nfev < maxfev and nit < maxiter)
