"""Parametric covariance matching under an assumed profile shape.

Baseline estimator: the same weighted covariance-matching cost as the
moment fit, but with the coherence shape pinned to an assumed family
(uniform or gaussian) so the free parameters are ``(z0, sigma_z, P,
sigma_eps2)``.  Power and noise concentrate linearly under a
nonnegativity constraint; the remaining 2-d search runs on a coarse
(z0, sigma_z) grid followed by a Nelder-Mead polish, whose height the
search plan bounds or wraps.

- Grid: the shape characteristic function of all sigma values is evaluated
  at the array's distinct baseline frequencies once per (config, array)
  (:func:`_parametric_plan`, cached with the height grid), and the terms
  come from the Gram form :func:`~tomoments.fitting.shape_terms_grid`: the
  shapes are real and even, so the shape's own term is a quadratic form in
  them with a per-covariance Gram matrix, and its data and cross terms are
  one real product.  The identity terms are constants computed once per
  covariance, and the grid's 2x2 systems concentrate in one broadcast call
  of the nonnegative closed form that forms only the objective,
  :func:`_grid_objective`, the identity's edge once as a scalar.  On a
  weighting of condition number above 1e3, where the Gram form cancels,
  the terms come from one batched product form over all heights and
  spreads, :func:`~tomoments.fitting.shape_terms_product`, on the shape
  matrices at the array's baseline differences.
- Exact points: the terms of the M x M product form
  :func:`~tomoments.fitting.fit_terms` at the
  :func:`~tomoments.geometry.steering_vector`, called on per-fit tables (the
  basis stack and the array's baseline differences) and concentrated on
  Python floats by :func:`_concentrate_pair`, the same closed form in the
  same order, so bit-identical to the array form without its per-call
  overhead.  Each point writes the shape's characteristic function at the
  differences into the stack, the entries of
  :func:`~tomoments.profiles.shape_matrix` without its profile, its
  recomputed differences or its Hermitian average (:func:`_point_evaluator`).
  They give the final coefficients and the zero-spread comparison.
- Polish: the package's own Nelder-Mead on Python floats,
  :func:`~tomoments.fitting.nelder_mead`.  On a weighting of condition
  number at most 1e3 its points take the Gram form of the prepared table
  at one point as one real quadratic form,
  ``PreparedCovariance.shape_point_form``: one ``exp`` of the phases (a
  gaussian's spread in the same exponent), a uniform's ``sin(u) / u``, one
  matrix-vector product and one dot, about a quarter of the cost of an
  exact point (:func:`_gram_point_evaluator`), and every
  test of two values within a relative 1e-10 of each other (a near-tie)
  runs on their exact values; a point near the 2x2 determinant screen
  takes the exact form.  The polish then returns the search on exact
  points alone, vertex, counts and diagnostics.  On a worse-conditioned
  weighting, where the Gram form is not that close, every point is exact.

What the fit needs of the covariance alone (the weighting and its
condition number, the coefficient table of the data stack
``(W Rbar W, W W)``, its traces, which are the identity's constant terms,
and the cost constant) comes from a
:class:`~tomoments.fitting.PreparedCovariance`, shared by the fits on it.

On uniformly spaced arrays the unconstrained fit is ambiguous: a
uniform shape evaluated only at harmonic baselines admits exact twins
(shifted by half the ambiguity height with negative power, or widened
by the ambiguity height with negative noise).  Requiring P >= 0 and
sigma_eps2 >= 0 removes both.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._fields import choice, from_json, to_json
from .fitting import (
    _FAST_CONDITION_LIMIT,
    _PLAN_CACHE_SIZE,
    _SearchPlan,
    PreparedCovariance,
    _check_search_options,
    _positive_part,
    _prepared,
    _read_only,
    _search_plan,
    fit_terms,
    shape_terms_grid,
    shape_terms_product,
)
from .fitting import _weighting_flagged, cost_constant  # not called: perfbench/spans.py patches these names
from .fitting import nelder_mead as minimize  # the polish's name: perfbench/spans.py times it
from .geometry import ArrayConfig, _finite_height, baseline_differences, steering_vector
from .profiles import _SQRT3, CovarianceModel, shape_characteristic
from .profiles import shape_matrix  # not called: perfbench/spans.py patches this name

__all__ = [
    "ASSUMED_SHAPES",
    "ParametricEstimatorConfig",
    "ParametricDiagnostics",
    "ParametricEstimate",
    "estimate_parametric",
]

ASSUMED_SHAPES = ("uniform", "gaussian")

_SIGMA_MAX_REL = 0.3
_SIGMA_POINTS = 64
_TINY = float(np.finfo(float).tiny)
# the 2x2 determinant, relative to Y11 Y22, at or below which a polish point
# takes the product form rather than the Gram form: the objective and the
# pinv flag jump at _concentrate_pair's screen (1e-12), and a small
# determinant amplifies the Gram terms' rounding in the interior solution, to
# a gap of 8e-11 from the product form at 4e-6 on the reference stack
# (tests/test_parametric.py); no benchmark point falls below 1e-4, one
# bias-scan point below 1e-3
_FAST_DET_MIN = 1e-3


@dataclass(frozen=True)
class ParametricEstimatorConfig:
    """Configuration of the assumed-shape estimator.

    ``assumed_shape`` selects the coherence family used by the fit, which
    need not match the data.  The (z0, sigma_z) grid follows the array: the
    moment estimator's z0 grid, and 64 spreads from 0 to ``0.3 * z_amb``.
    The JSON form writes every field that is set, after ``"method":
    "parametric"``.
    """

    assumed_shape: str = "uniform"
    weighting: str = "inverse_sample"
    refine_tol: float | None = None
    z0_max: float | None = None

    def __post_init__(self) -> None:
        choice(self.assumed_shape, ASSUMED_SHAPES, "assumed_shape")
        _check_search_options(self)

    def to_json(self) -> dict:
        return {"method": "parametric", **to_json(self)}

    @classmethod
    def from_json(cls, obj: dict) -> "ParametricEstimatorConfig":
        return from_json(cls, obj, fixed={"method": "parametric"})


@dataclass(frozen=True)
class ParametricDiagnostics:
    weighting_loaded: bool = False
    pinv_used: bool = False


@dataclass(frozen=True)
class ParametricEstimate:
    """Result of the assumed-shape fit."""

    z0_hat: float
    sigma_z_hat: float
    P_hat: float
    sigma_eps2_hat: float
    cost: float
    diagnostics: ParametricDiagnostics


def _grid_objective(y1, y2: float, Y11, Y12, Y22: float) -> np.ndarray:
    """The objective of ``max 2 y'a - a'Ya`` over ``a = (P, sigma_eps2) >= 0`` on a grid.

    ``y = (y1, y2)`` and ``Y = [[Y11, Y12], [Y12, Y22]]`` are given by their
    terms: arrays for the shape's and the identity's constant terms ``y2``
    and ``Y22``, scalars.  Each system takes its interior stationary point
    when that is feasible, otherwise the best feasible edge, in closed form:
    :func:`_concentrate_pair`'s formulas in the same order, on arrays, so
    each objective has the bits that function gives on its system, and the
    identity's edge ``q2`` is computed once.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        edge2 = np.maximum(y2, 0.0) / Y22 if Y22 > 0.0 else 0.0  # P = 0
        q2 = edge2 * y2
        Y11Y22 = Y11 * Y22
        det = Y11Y22 - Y12 * Y12
        degenerate = ~(det > 1e-12 * np.maximum(Y11Y22, _TINY))
        Y22y1, Y11y2 = Y22 * y1, Y11 * y2
        a1 = (Y22y1 - Y12 * y2) / det
        a2 = (Y11y2 - Y12 * y1) / det
        q_in = (Y22y1 * y1 - 2.0 * Y12 * y1 * y2 + Y11y2 * y2) / det
        edge1 = np.where(Y11 > 0.0, np.maximum(y1, 0.0) / Y11, 0.0)  # sigma_eps2 = 0
    q1 = edge1 * y1
    interior = ~degenerate & (a1 >= 0.0) & (a2 >= 0.0)
    return np.where(interior, q_in, np.where(q1 >= q2, q1, q2))


def _concentrate_pair(y1: float, y2: float, Y11: float, Y12: float, Y22: float):
    """Maximize ``2 y'a - a'Ya`` over ``a = (P, sigma_eps2) >= 0`` on one system of Python floats.

    ``y = (y1, y2)`` and ``Y = [[Y11, Y12], [Y12, Y22]]`` are given by their
    terms.  The system takes its interior stationary point when that is
    feasible, otherwise the best feasible edge, in closed form; returns
    ``(P, sigma_eps2, objective, degenerate)``, ``degenerate`` when the
    determinant is at most ``1e-12`` of ``Y11 Y22``.  The interior solution
    is only formed when ``det`` passes that screen.
    """
    det = Y11 * Y22 - Y12 * Y12
    degenerate = not det > 1e-12 * max(Y11 * Y22, _TINY)
    if not degenerate:
        a1 = (Y22 * y1 - Y12 * y2) / det
        a2 = (Y11 * y2 - Y12 * y1) / det
        if a1 >= 0.0 and a2 >= 0.0:
            q_in = (Y22 * y1 * y1 - 2.0 * Y12 * y1 * y2 + Y11 * y2 * y2) / det
            return a1, a2, q_in, False
    edge1 = _positive_part(y1) / Y11 if Y11 > 0.0 else 0.0  # sigma_eps2 = 0
    edge2 = _positive_part(y2) / Y22 if Y22 > 0.0 else 0.0  # P = 0
    q1, q2 = edge1 * y1, edge2 * y2
    if q1 >= q2:
        return edge1, 0.0, q1, degenerate
    return 0.0, edge2, q2, degenerate


def _finite_spread(sigma) -> float:
    """The spread's magnitude ``|sigma|`` as a float, refused with ``ValueError``
    when it is not finite: a NaN spread would otherwise give a finite objective."""
    s = abs(float(sigma))
    if not math.isfinite(s):
        raise ValueError("sigma must be finite")
    return s


def _point_evaluator(shape: str, array: ArrayConfig, W: np.ndarray, WRW: np.ndarray):
    """The concentrated criterion at one ``(z0, sigma_z)`` point, exact.

    Returns a function of ``(z, sigma)`` giving ``(P, sigma_eps2, objective,
    degenerate)``: the terms of ``fit_terms(stack, steering_vector(array, z),
    W, WRW)`` on the (shape, identity) basis, concentrated by
    :func:`_concentrate_pair`, so its objective has the bits of
    :func:`_grid_objective` on the same terms.  The tables are taken once
    per fit: the basis lives in one preallocated stack, whose identity row
    is written once, and the array's baseline differences.  Each point
    writes the shape's characteristic function at them, the entries of
    :func:`~tomoments.profiles.shape_matrix` of a profile with that spread,
    into the stack and calls this module's ``fit_terms``, the name a tracer
    patches.  Its Hermitian average changes no bit here: the differences
    are exactly antisymmetric and both assumed shapes exactly even.  A
    non-finite height raises
    :func:`~tomoments.geometry.steering_vector`'s ``ValueError``, and then a
    non-finite spread :func:`_finite_spread`'s.
    """
    stack = np.zeros((2, array.M, array.M), dtype=complex)
    stack[1] = np.eye(array.M)
    differences = baseline_differences(array)

    def concentrated(point) -> tuple[float, float, float, bool]:
        z, sigma = point
        a = steering_vector(array, z)
        stack[0] = shape_characteristic(shape, _finite_spread(sigma), differences)
        y, Y = fit_terms(stack, a, W, WRW)
        (Y11, Y12), (_, Y22) = Y.tolist()
        return _concentrate_pair(*y.tolist(), Y11, Y12, Y22)

    return concentrated


def _gram_point_evaluator(shape: str, covariance: PreparedCovariance, product_form):
    """:func:`_point_evaluator`'s criterion in the Gram form of the prepared table.

    The same ``(z, sigma) -> (P, sigma_eps2, objective, degenerate)``, from
    the real quadratic form ``covariance.shape_point_form``: the shape's
    characteristic function at the frequencies ``f > 0`` times the phases
    ``exp(j z f)`` fill one preallocated complex vector ``v`` (its ``f = 0``
    entry is 1), and with ``x`` its float view ``Y11 = x^T G x`` and ``(y1,
    Y12) = D x``; the ``covariance.traces`` are the identity's terms, and
    :func:`_concentrate_pair` concentrates them.  A gaussian's ``exp(-sigma^2
    f^2 / 2)`` joins the phases' exponent, a uniform's ``sin(u) / u``, ``u =
    sqrt(3) sigma f``, multiplies them at a nonzero spread.  It agrees to
    rounding with ``product_form``, the :func:`_point_evaluator` of the same
    fit, and returns its values at every point whose determinant is at most
    ``_FAST_DET_MIN`` of ``Y11 Y22``, where the screen or the rounding would
    set the two apart, or is not a number (a spread so small that ``u``
    underflows to 0).  A non-finite height or spread raises the
    ``ValueError`` of the product form.
    """
    form = covariance.shape_point_form
    n = form.shape[1]
    positive = covariance.terms.frequencies[covariance.terms.frequencies.size // 2 + 1 :]
    v = np.ones(n // 2, dtype=complex)
    x, tail = v.view(float), v[1:]
    rate = 1j * positive
    gaussian = shape == "gaussian"
    decay, width = -0.5 * positive * positive, _SQRT3 * positive
    noise_y, noise_Y = covariance.traces.tolist()

    def concentrated(point) -> tuple[float, float, float, bool]:
        z, sigma = point
        z, s = _finite_height(z), _finite_spread(sigma)
        if gaussian:
            np.exp(rate * z + (s * s) * decay, out=tail)
        else:
            np.exp(rate * z, out=tail)
            if s != 0.0:
                u = s * width
                np.multiply(tail, np.sin(u) / u, out=tail)
        g = form.dot(x)
        Y11 = float(x.dot(g[:n]))
        y1, Y12 = g[n:].tolist()
        if not Y11 * noise_Y - Y12 * Y12 > _FAST_DET_MIN * Y11 * noise_Y:
            return product_form(point)
        return _concentrate_pair(y1, noise_y, Y11, Y12, noise_Y)

    return concentrated


class _ParametricPlan(NamedTuple):
    """The tables of a parametric fit that depend only on the config and the array:
    the height ``search``, the ``sigma_values (S,)`` of the spread grid and the
    assumed shape's characteristic function ``phi (S, F)`` at them."""

    search: _SearchPlan
    sigma_values: np.ndarray
    phi: np.ndarray


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _parametric_plan(config: ParametricEstimatorConfig, array: ArrayConfig) -> _ParametricPlan:
    """The cached :class:`_ParametricPlan` of ``(config, array)``, its arrays read-only."""
    search = _search_plan(config, array)
    sigma_values = np.linspace(0.0, _SIGMA_MAX_REL * search.z_amb, _SIGMA_POINTS)
    phi = shape_characteristic(config.assumed_shape, sigma_values[:, None], search.frequencies)
    return _ParametricPlan(search, _read_only(sigma_values), _read_only(phi))


def estimate_parametric(
    R_bar: CovarianceModel | PreparedCovariance,
    config: ParametricEstimatorConfig,
    array: ArrayConfig,
) -> ParametricEstimate:
    """Fit ``(z0, sigma_z, P, sigma_eps2)`` under the assumed shape family.

    The (z0, sigma_z) plane is scanned on a coarse grid with power and noise
    concentrated out at every node, then the best node is polished by
    Nelder-Mead on the concentrated criterion.  The fitted coherence is even
    in sigma_z, so sigma_z runs unconstrained and its sign is dropped.  The
    height runs free and wraps when ``z0_max`` is a period of the array, and
    is bounded to ``[0, z0_max)`` otherwise.  ``R_bar`` is a covariance or,
    giving the same bits, the same prepared once for the config's weighting
    on ``array`` by :class:`~tomoments.fitting.PreparedCovariance`.
    """
    covariance = _prepared(R_bar, array, config.weighting)
    plan = _parametric_plan(config, array)
    search, sigma_values = plan.search, plan.sigma_values

    # concentrated objective on the (z0, sigma) grid, restricted to nonnegative
    # power and noise.  The identity does not move with z0: its own terms are
    # the constants tr(W Rbar W) and tr(W W), and its cross term with the shape
    # is the shape's data term against W I W, the second data column.
    # The Gram form cancels on an ill-conditioned weighting: the grid and the
    # polish then run on the product form alone.
    noise_y, noise_Y = covariance.traces.tolist()
    gram = covariance.condition <= _FAST_CONDITION_LIMIT
    if gram:
        y_shape, Y11 = shape_terms_grid(plan.phi, search.phase, covariance.terms)
    else:
        shapes = shape_characteristic(config.assumed_shape, sigma_values[:, None, None], baseline_differences(array))
        steering = np.exp(1j * np.multiply.outer(search.z_grid, array.kz))
        y_shape, Y11 = shape_terms_product(shapes, steering, covariance.W, covariance.WRW)
    objective = _grid_objective(y_shape[..., 0], noise_y, Y11, y_shape[..., 1], noise_Y)

    best_z, best_s = np.unravel_index(int(np.argmax(objective)), objective.shape)
    flags = {"pinv": False}
    concentrated = _point_evaluator(config.assumed_shape, array, covariance.W, covariance.WRW)
    point, exact = concentrated, None
    if gram:
        # the polish's points in the Gram form, its near-ties in the product
        # form: the weighting is well enough conditioned for the two to agree
        point = _gram_point_evaluator(config.assumed_shape, covariance, concentrated)

        def exact(at) -> float:
            return -concentrated(at)[2]

    def negated(at) -> float:
        _, _, q, degenerate = point(at)
        flags["pinv"] = flags["pinv"] or degenerate
        return -q

    z, sigma = float(search.z_grid[best_z]), float(sigma_values[best_s])
    sigma_step = float(sigma_values[1] - sigma_values[0])
    simplex = [(z, sigma), (z + 0.5 * search.step, sigma), (z, sigma + 0.5 * sigma_step)]
    q_start = float(objective[best_z, best_s])
    result = minimize(
        negated,
        simplex,
        bounds=search.polish_bounds(),
        xatol=search.refine_tol,
        fatol=1e-9 * (1.0 + abs(q_start)),
        maxiter=4000,
        maxfev=8000,
        exact=exact,
    )
    z0_hat, sigma_z_hat = search.wrap(result.x[0]), abs(result.x[1])

    P_hat, noise_hat, q_final, pinv_final = concentrated([z0_hat, sigma_z_hat])
    # the objective is quartically flat in sigma near a point source, so the
    # polish can stall at a tiny spread; prefer the zero-spread boundary when
    # it matches the polished objective to numerical resolution
    if sigma_z_hat > 0.0:
        P0, noise0, q0, pinv0 = concentrated([z0_hat, 0.0])
        if q0 >= q_final - 1e-10 * (1.0 + abs(q_final)):
            sigma_z_hat, P_hat, noise_hat, q_final, pinv_final = 0.0, P0, noise0, q0, pinv0
    cost = max(covariance.cost_constant - q_final, 0.0)

    return ParametricEstimate(
        z0_hat=z0_hat,
        sigma_z_hat=sigma_z_hat,
        P_hat=P_hat,
        sigma_eps2_hat=noise_hat,
        cost=float(cost),
        diagnostics=ParametricDiagnostics(
            weighting_loaded=covariance.loaded,
            pinv_used=bool(flags["pinv"] or pinv_final),
        ),
    )
