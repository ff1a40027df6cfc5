"""Non-parametric moment-based covariance matching.

The coherence shape matrix is expanded in central moments of the profile
density, ``Bhat(mu) = 1 1^T + sum_d (j^d / d!) mu_d U_d`` with ``U_d`` the
elementwise d-th power of the wavenumber differences.  After the change of
variables ``nu = P mu`` the model is linear in ``alpha = (P, sigma_eps2,
nu_2, ..., nu_D)`` at fixed height, so the fit reduces to a 1-d search over
z0 of a concentrated weighted least-squares criterion.  Every basis matrix
is a function of the baseline difference, so the coarse z0 grid runs on the
Gram form :func:`~tomoments.fitting.fit_terms_grid`.  The golden-section
refinement runs on the search plan's bracket of the best grid node, with its
height bounded or wrapped by the plan.  Its fast form is the Chebyshev
interpolant of the objective through 21 Chebyshev-Lobatto nodes of the
bracket, whose terms come from the same Gram form and are solved as one
batch (:func:`~tomoments.fitting._objective_interpolant`); two values within
a relative ``1e-10`` of each other are compared by the product form
:func:`~tomoments.fitting.fit_terms` instead, so the search returns the
height of the search on the product form alone wherever the interpolant is
within half that band of the product form.  The bracket refines on the
product form alone when the interpolant is refused (a node needs the
pseudo-inverse, or the series' tail shows that 21 nodes do not resolve the
objective there).  On a weighting of condition number above
``_FAST_CONDITION_LIMIT`` (a noiseless covariance, or one of fewer snapshots
than acquisitions), where the Gram form cancels, the grid takes its terms
from the product form, height by height, and the bracket refines on the
product form alone.  The near-ties, that grid and the final coefficients
share one product-form evaluator.  What the search needs of the config and
the array alone (the grid, the basis stack, the basis responses and those
times the grid's phase table, the identifiability check) is built once per
(config, array) by :func:`_moment_plan` and cached; what it needs of the
covariance alone (the weighting, ``W Rbar W``, the cost constant and the
frequency coefficients of ``W Rbar W``, column 0 of the prepared table),
once per covariance and weighting by a
:class:`~tomoments.fitting.PreparedCovariance`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._fields import count, flag, from_json, to_json
from .fitting import (
    _FAST_CONDITION_LIMIT,
    _PLAN_CACHE_SIZE,
    _SearchPlan,
    PreparedCovariance,
    _check_search_options,
    _frequency_groups,
    _interpolant_nodes,
    _objective_interpolant,
    _prepared,
    _read_only,
    _search_plan,
    fit_terms,
    fit_terms_grid,
    golden_section_max,
    solve_quadratic,
)
from .fitting import _weighting_flagged, cost_constant  # not called: perfbench/spans.py patches these names
from .geometry import MAX_DIFFERENCE_ORDER, ArrayConfig, baseline_differences, steering_vector
from .profiles import CovarianceModel

__all__ = [
    "MomentEstimatorConfig",
    "MomentDiagnostics",
    "MomentEstimate",
    "moment_orders",
    "estimate",
    "model_power_spectrum",
]


@dataclass(frozen=True)
class MomentEstimatorConfig:
    """Configuration of the moment-based estimator.

    Parameters
    ----------
    D : int
        Highest moment order in the expansion, between 2 and 12.  A fit
        refuses a D too high for its array (see :func:`_check_identifiable`).
    symmetric : bool
        Keep even orders only, for profiles assumed symmetric about z0.
    weighting : str
        ``"identity"`` or ``"inverse_sample"`` (the asymptotically efficient
        choice when the model holds).
    refine_tol : float, optional
        Golden-section bracket width at which the z0 refinement stops, in m.
        Defaults to ``1e-4 * z_amb``.
    z0_max : float, optional
        Upper edge of the searched height interval ``[0, z0_max)``.
        Defaults to the array ambiguity.

    The coarse z0 grid follows the array: ``max(8 M, ceil(z_amb /
    (fourier_resolution / 16)))`` points on ``[0, z0_max)``.

    Fields are checked by :mod:`tomoments._fields`; JSON writes those set.
    """

    D: int = 4
    symmetric: bool = True
    weighting: str = "inverse_sample"
    refine_tol: float | None = None
    z0_max: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "D", count(self.D, "D", least=2, most=MAX_DIFFERENCE_ORDER))
        flag(self.symmetric, "symmetric")
        _check_search_options(self)

    def to_json(self) -> dict:
        return {"method": "moments", **to_json(self)}

    @classmethod
    def from_json(cls, obj: dict) -> "MomentEstimatorConfig":
        return from_json(cls, obj, fixed={"method": "moments"})


@dataclass(frozen=True)
class MomentDiagnostics:
    """Solver events recorded during an estimate, each a flag.

    ``clamped_sigma`` is set when the spread was clamped to zero (a
    nonpositive fitted curvature or power), ``negative_power`` when the
    fitted power itself is nonpositive, the mark of a twin-like fit,
    ``weighting_loaded`` when the weighting was diagonally loaded, and
    ``pinv_used`` when a solve of the grid, the refinement or the final
    coefficients fell back to the pseudo-inverse.  A node of the
    refinement's interpolant that falls back is not reported: it refuses the
    interpolant, whose values are dropped, and the bracket refines on the
    product form, whose points report their own.
    """

    clamped_sigma: bool
    weighting_loaded: bool = False
    pinv_used: bool = False
    negative_power: bool = False


@dataclass(frozen=True)
class MomentEstimate:
    """Result of the moment-based fit.

    ``nu`` holds ``nu_d = P mu_d`` for d = 2..D in order; orders excluded by
    a symmetric fit are zero.  ``sigma_z_hat`` is ``sqrt(nu_2 / P)`` clamped
    to zero (and flagged) when the fitted curvature or power is nonpositive.
    """

    z0_hat: float
    P_hat: float
    sigma_eps2_hat: float
    nu: np.ndarray
    sigma_z_hat: float
    cost: float
    diagnostics: MomentDiagnostics

    @property
    def mu(self) -> np.ndarray:
        """Central-moment estimates ``nu / P_hat``."""
        return self.nu / self.P_hat


def moment_orders(config: MomentEstimatorConfig) -> tuple[int, ...]:
    """Moment orders included in the expansion (evens only when symmetric)."""
    step = 2 if config.symmetric else 1
    return tuple(range(2, config.D + 1, step))


def _basis_response(config: MomentEstimatorConfig, f) -> np.ndarray:
    """The basis as functions of the baseline frequency f, stacked (K, ...):
    all-ones, identity (``f = 0``), then ``(j^d / d!) f^d`` per moment order."""
    f = np.asarray(f, dtype=float)
    terms = [np.ones_like(f), (f == 0.0).astype(float)]
    terms += [(1j**d / math.factorial(d)) * f**d for d in moment_orders(config)]
    return np.stack(terms).astype(complex)


def _basis_stack(config: MomentEstimatorConfig, array: ArrayConfig) -> np.ndarray:
    """Hermitian basis (K, M, M): the basis response at every baseline difference."""
    return _basis_response(config, baseline_differences(array))


def _check_identifiable(config: MomentEstimatorConfig, array: ArrayConfig) -> None:
    """Refuse a moment basis that fits the half-ambiguity twin of a source exactly.

    Shifting a source by half the ambiguity height multiplies the covariance
    at each integer lag ``|kz_m - kz_n| * z_amb / 2pi`` by ``(-1)^lag``.  The
    even-order terms (P, nu_2, nu_4, ...: ``1 + D // 2`` real coefficients,
    whether or not the fit is symmetric) fit that sign pattern exactly, with
    a negative power, once they are at least as many as the distinct nonzero
    lags; the noise absorbs lag 0.  The height is then not identifiable.
    Arrays without an ambiguity are not checked.
    """
    if array.ambiguity is None:
        return
    # the lags of the baseline frequencies f >= 0 rise from 0 along them
    frequencies = _frequency_groups(array)[0]
    lags = np.rint(frequencies[frequencies.size // 2 :] * (array.ambiguity / (2.0 * math.pi)))
    distinct = int(np.count_nonzero(np.diff(lags)))
    if 1 + config.D // 2 >= distinct:
        raise ValueError(
            f"moment fit D={config.D}, symmetric={config.symmetric} is not identifiable on M={array.M} "
            f"acquisitions: its {1 + config.D // 2} even-order terms fit all {distinct} distinct lags of "
            "the half-ambiguity twin; lower D"
        )


class _MomentPlan(NamedTuple):
    """The tables of a moment fit that depend only on the config and the array.

    ``search`` holds the grid, ``stack (K, M, M)`` the basis matrices,
    ``response (K, F)`` the basis responses at the array's baseline
    frequencies and ``weighted (Z, K, F)`` those times the grid's phase
    table, the input of :func:`~tomoments.fitting.fit_terms_grid`.
    """

    search: _SearchPlan
    stack: np.ndarray
    response: np.ndarray
    weighted: np.ndarray


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _moment_plan(config: MomentEstimatorConfig, array: ArrayConfig) -> _MomentPlan:
    """The cached :class:`_MomentPlan` of ``(config, array)``, its arrays read-only.

    Raises for a config the array cannot identify; nothing is cached then,
    so every later call raises again.
    """
    _check_identifiable(config, array)
    search = _search_plan(config, array)
    response = _basis_response(config, search.frequencies)
    weighted = response * search.phase[:, None, :]
    return _MomentPlan(search, *map(_read_only, (_basis_stack(config, array), response, weighted)))


def estimate(
    R_bar: CovarianceModel | PreparedCovariance,
    config: MomentEstimatorConfig,
    array: ArrayConfig,
) -> MomentEstimate:
    """Fit height, power, noise and profile moments to a covariance.

    Runs the concentrated criterion over a uniform z0 grid on
    ``[0, z0_max)``, refines the best cell by golden section (the height
    wraps when ``z0_max`` is a period of the array and is bounded to the
    interval otherwise), then recovers the linear coefficients there.

    Parameters
    ----------
    R_bar : CovarianceModel or PreparedCovariance
        Sample covariance (or exact covariance, for asymptotic studies), or
        the same prepared once for the config's weighting on ``array`` by
        :class:`~tomoments.fitting.PreparedCovariance` and shared with other
        fits; both give the same bits.
    config : MomentEstimatorConfig
    array : ArrayConfig
        Geometry; must match the covariance dimension.
    """
    covariance = _prepared(R_bar, array, config.weighting)
    plan = _moment_plan(config, array)
    search, stack = plan.search, plan.stack
    W, WRW = covariance.W, covariance.WRW

    def product_terms(z: float):
        return fit_terms(stack, steering_vector(array, z), W, WRW)

    def product_form(z: float):
        return solve_quadratic(*product_terms(z))

    terms = covariance.terms._replace(c=covariance.terms.c[:, 0])
    # the Gram form cancels on an ill-conditioned weighting: the grid and the
    # refinement then run on the product form alone
    gram = covariance.condition <= _FAST_CONDITION_LIMIT
    if gram:
        y, Y = fit_terms_grid(plan.weighted, terms)
    else:
        y, Y = map(np.stack, zip(*map(product_terms, search.z_grid)))
    _, objective, pinv_used = solve_quadratic(y, Y)
    lo, hi = search.bracket(int(np.argmax(objective)))

    fast = None
    if gram:
        phase = np.exp(1j * np.multiply.outer(_interpolant_nodes(lo, hi), search.frequencies))
        fast = _objective_interpolant(*fit_terms_grid(plan.response * phase[:, None, :], terms), lo, hi)

    def exact(z: float) -> float:
        nonlocal pinv_used
        _, q, pinv = product_form(z)
        pinv_used = pinv_used or pinv
        return q

    if fast is None:
        z0_hat = golden_section_max(exact, lo, hi, search.refine_tol)
    else:
        z0_hat = golden_section_max(fast, lo, hi, search.refine_tol, exact=exact)
    z0_hat = search.wrap(z0_hat)

    alpha, q_final, pinv_final = product_form(z0_hat)
    cost = max(covariance.cost_constant - q_final, 0.0)

    P_hat = float(alpha[0])
    orders = moment_orders(config)
    nu = np.zeros(config.D - 1)
    for k, d in enumerate(orders):
        nu[d - 2] = alpha[2 + k]
    nu_2 = nu[0]
    clamped = bool(nu_2 < 0.0 or P_hat <= 0.0)
    sigma_z_hat = math.sqrt(max(nu_2, 0.0) / P_hat) if P_hat > 0.0 else 0.0

    return MomentEstimate(
        z0_hat=float(z0_hat),
        P_hat=P_hat,
        sigma_eps2_hat=float(alpha[1]),
        nu=nu,
        sigma_z_hat=float(sigma_z_hat),
        cost=float(cost),
        diagnostics=MomentDiagnostics(
            clamped_sigma=clamped,
            weighting_loaded=covariance.loaded,
            pinv_used=bool(pinv_used or pinv_final),
            negative_power=P_hat <= 0.0,
        ),
    )


def model_power_spectrum(P: float, nu: np.ndarray, xi) -> np.ndarray:
    """Fitted power spectrum ``P + sum_d (j^d / d!) nu_d xi^d``.

    ``nu`` is ordered d = 2..D as on :class:`MomentEstimate`.  The result is
    complex in general; it is real when only even orders are present.
    """
    x = np.asarray(xi, dtype=float)
    out = np.full(x.shape, complex(P), dtype=complex)
    for k, nu_d in enumerate(np.asarray(nu, dtype=float)):
        d = k + 2
        out += (1j**d / math.factorial(d)) * nu_d * x**d
    return out[()]
