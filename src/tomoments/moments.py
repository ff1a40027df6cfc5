"""Non-parametric moment-based covariance matching.

The coherence shape matrix is expanded in central moments of the profile
density, ``Bhat(mu) = 1 1^T + sum_d (j^d / d!) mu_d U_d`` with ``U_d`` the
elementwise d-th power of the wavenumber differences.  After the change of
variables ``nu = P mu`` the model is linear in ``alpha = (P, sigma_eps2,
nu_2, ..., nu_D)`` at fixed height, so the fit reduces to a 1-d search over
z0 of a concentrated weighted least-squares criterion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fitting import (
    _GRID_PER_CHANNEL,
    _check_search_options,
    _checked_covariance,
    _default_grid_points,
    _refine_tol,
    _search_domain,
    _weighting_flagged,
    cost_constant,
    fit_terms,
    fit_terms_grid,
    golden_section_max,
    solve_quadratic,
)
from .fitting import weighting  # re-exported; part of this module's surface
from .geometry import (
    MAX_DIFFERENCE_ORDER,
    ArrayConfig,
    difference_power_matrix,
    steering_vector,
)
from .profiles import CovarianceModel

__all__ = [
    "MomentEstimatorConfig",
    "MomentDiagnostics",
    "MomentEstimate",
    "moment_orders",
    "weighting",
    "estimate",
    "reconstruct_covariance",
    "model_power_spectrum",
]


@dataclass(frozen=True)
class MomentEstimatorConfig:
    """Configuration of the moment-based estimator.

    Parameters
    ----------
    D : int
        Highest moment order in the expansion, between 2 and 12.
    symmetric : bool
        Keep even orders only, for profiles assumed symmetric about z0.
    weighting : str
        ``"identity"`` or ``"inverse_sample"`` (the asymptotically efficient
        choice when the model holds).
    grid_points : int, optional
        Coarse z0 grid size; defaults to
        ``max(8 M, ceil(z_amb / (fourier_resolution / 16)))``.
    refine_tol : float, optional
        Golden-section bracket width at which the z0 refinement stops, in m.
        Defaults to ``1e-4 * z_amb``.
    z0_max : float, optional
        Upper edge of the searched height interval ``[0, z0_max)``.
        Defaults to the array ambiguity.
    """

    D: int = 4
    symmetric: bool = True
    weighting: str = "inverse_sample"
    grid_points: int | None = None
    refine_tol: float | None = None
    z0_max: float | None = None

    def __post_init__(self) -> None:
        if int(self.D) != self.D or not (2 <= self.D <= MAX_DIFFERENCE_ORDER):
            raise ValueError(f"D must be an integer in [2, {MAX_DIFFERENCE_ORDER}]")
        object.__setattr__(self, "D", int(self.D))
        if not isinstance(self.symmetric, bool):
            raise ValueError("symmetric must be true or false")
        _check_search_options(self, "grid_points")

    def to_json(self) -> dict:
        out = {"method": "moments", "D": self.D, "symmetric": self.symmetric, "weighting": self.weighting}
        for name in ("grid_points", "refine_tol", "z0_max"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "MomentEstimatorConfig":
        kwargs = {k: obj[k] for k in ("D", "symmetric", "weighting", "grid_points", "refine_tol", "z0_max") if k in obj}
        return cls(**kwargs)


@dataclass(frozen=True)
class MomentDiagnostics:
    """Solver events recorded during an estimate."""

    clamped_sigma: bool
    grid_resolution_used: float
    weighting_loaded: bool = False
    pinv_used: bool = False


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


def _basis_stack(config: MomentEstimatorConfig, array: ArrayConfig) -> np.ndarray:
    """Hermitian basis (K, M, M): all-ones, identity, then the moment terms."""
    M = array.M
    matrices = [np.ones((M, M), dtype=complex), np.eye(M, dtype=complex)]
    for d in moment_orders(config):
        coefficient = 1j**d / math.factorial(d)
        matrices.append(coefficient * difference_power_matrix(array, d))
    return np.stack(matrices)


def estimate(
    R_bar: CovarianceModel,
    config: MomentEstimatorConfig,
    array: ArrayConfig,
) -> MomentEstimate:
    """Fit height, power, noise and profile moments to a covariance.

    Runs the concentrated criterion over a uniform z0 grid on
    ``[0, z0_max)``, refines the best cell by golden section, then recovers
    the linear coefficients at the refined height.

    Parameters
    ----------
    R_bar : CovarianceModel
        Sample covariance (or exact covariance, for asymptotic studies).
    config : MomentEstimatorConfig
    array : ArrayConfig
        Geometry; must match the covariance dimension.
    """
    R = _checked_covariance(R_bar, array)
    z_amb = _search_domain(config, array)
    grid_points = config.grid_points or _default_grid_points(array, z_amb)
    if grid_points < _GRID_PER_CHANNEL * array.M:
        raise ValueError(f"grid_points must be at least {_GRID_PER_CHANNEL}*M")
    refine_tol = _refine_tol(config, z_amb)

    W, loaded = _weighting_flagged(R_bar, config.weighting)
    WRW = W @ R @ W
    stack = _basis_stack(config, array)

    step = z_amb / grid_points
    z_grid = step * np.arange(grid_points)
    A = np.exp(1j * np.outer(z_grid, array.kz))
    y, Y = fit_terms_grid(stack, A, W, WRW)
    _, objective, pinv_used = solve_quadratic(y, Y)
    best = int(np.argmax(objective))

    def at(z: float) -> float:
        y1, Y1 = fit_terms(stack, steering_vector(array, z), W, WRW)
        _, q, _ = solve_quadratic(y1, Y1)
        return q

    z0_hat = golden_section_max(at, z_grid[best] - step, z_grid[best] + step, refine_tol) % z_amb

    y1, Y1 = fit_terms(stack, steering_vector(array, z0_hat), W, WRW)
    alpha, q_final, pinv_final = solve_quadratic(y1, Y1)
    cost = max(cost_constant(R, W) - q_final, 0.0)

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
            grid_resolution_used=float(step),
            weighting_loaded=loaded,
            pinv_used=bool(pinv_used or pinv_final),
        ),
    )


def reconstruct_covariance(
    z0: float,
    alpha: np.ndarray,
    config: MomentEstimatorConfig,
    array: ArrayConfig,
) -> CovarianceModel:
    """Model covariance at given height and linear coefficients."""
    stack = _basis_stack(config, array)
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (stack.shape[0],):
        raise ValueError("alpha length must match the basis size")
    inner = np.tensordot(alpha, stack, axes=1)
    a = steering_vector(array, z0)
    R = a[:, None] * inner * a.conj()[None, :]
    return CovarianceModel(0.5 * (R + R.conj().T), "reconstructed")


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
