"""Parametric covariance matching under an assumed profile shape.

Baseline estimator: the same weighted covariance-matching cost as the
moment fit, but with the coherence shape pinned to an assumed family
(uniform or gaussian) so the free parameters are ``(z0, sigma_z, P,
sigma_eps2)``.  Power and noise concentrate linearly under a
nonnegativity constraint; the remaining 2-d search runs on a coarse
(z0, sigma_z) grid followed by a Nelder-Mead polish.  The grid stacks one
(shape, identity) basis per sigma value and builds the terms of every
(z0, sigma) node with the shared broadcasting engine
:func:`~tomoments.fitting.fit_terms_grid`; the grid and the polish then
concentrate through the same batched 2x2 closed form.

On uniformly spaced arrays the unconstrained fit is ambiguous: a
uniform shape evaluated only at harmonic baselines admits exact twins
(shifted by half the ambiguity height with negative power, or widened
by the ambiguity height with negative noise).  Requiring P >= 0 and
sigma_eps2 >= 0 removes both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .fitting import (
    _check_search_options,
    _checked_covariance,
    _default_grid_points,
    _refine_tol,
    _search_domain,
    _weighting_flagged,
    cost_constant,
    fit_terms,
    fit_terms_grid,
)
from .geometry import ArrayConfig, steering_vector
from .profiles import CovarianceModel, SourceProfile, shape_matrix

__all__ = [
    "ASSUMED_SHAPES",
    "SigmaGrid",
    "ParametricEstimatorConfig",
    "ParametricDiagnostics",
    "ParametricEstimate",
    "estimate_parametric",
]

ASSUMED_SHAPES = ("uniform", "gaussian")

_SIGMA_MAX_REL = 0.3
# sigma values per fit_terms_grid call in the grid scan: all 64 at once hold a
# (z0, 64, 2, M, M) intermediate of about 12 MB at M = 7, one at a time pays
# the per-call overhead 64 times; 8 holds about 2 MB and runs as fast as 64
_SIGMA_CHUNK = 8


@dataclass(frozen=True)
class SigmaGrid:
    """Coarse search grid for the spread parameter, in m."""

    min: float = 0.0
    max: float | None = None  # None -> 0.3 * z_amb
    points: int = 64

    def __post_init__(self) -> None:
        if isinstance(self.min, bool) or isinstance(self.max, bool):
            raise ValueError("sigma grid bounds are lengths in m, not booleans")
        if not (math.isfinite(self.min) and self.min >= 0.0):
            raise ValueError("sigma grid min must be nonnegative")
        if self.max is not None:
            if not (math.isfinite(self.max) and self.max > self.min):
                raise ValueError("sigma grid max must exceed min")
        if int(self.points) != self.points or self.points < 2:
            raise ValueError("sigma grid needs at least 2 points")
        object.__setattr__(self, "points", int(self.points))


@dataclass(frozen=True)
class ParametricEstimatorConfig:
    """Configuration of the assumed-shape estimator.

    ``assumed_shape`` selects the coherence family used by the fit, which
    need not match the data; ``z0_grid`` defaults to the same rule as the
    moment estimator's grid.
    """

    assumed_shape: str = "uniform"
    weighting: str = "inverse_sample"
    z0_grid: int | None = None
    sigma_grid: SigmaGrid = field(default_factory=SigmaGrid)
    refine_tol: float | None = None
    z0_max: float | None = None

    def __post_init__(self) -> None:
        if self.assumed_shape not in ASSUMED_SHAPES:
            raise ValueError(f"assumed_shape must be one of {ASSUMED_SHAPES}")
        _check_search_options(self, "z0_grid")

    def to_json(self) -> dict:
        out = {"method": "parametric", "assumed_shape": self.assumed_shape, "weighting": self.weighting}
        if self.z0_grid is not None:
            out["z0_grid"] = self.z0_grid
        grid = self.sigma_grid
        if (grid.min, grid.max, grid.points) != (0.0, None, 64):
            out["sigma_grid"] = {"min": grid.min, "max": grid.max, "points": grid.points}
        for name in ("refine_tol", "z0_max"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "ParametricEstimatorConfig":
        kwargs = {
            k: obj[k]
            for k in ("assumed_shape", "weighting", "z0_grid", "refine_tol", "z0_max")
            if k in obj
        }
        if "sigma_grid" in obj:
            grid = obj["sigma_grid"]
            kwargs["sigma_grid"] = SigmaGrid(
                min=float(grid.get("min", 0.0)),
                max=None if grid.get("max") is None else float(grid["max"]),
                points=grid.get("points", 64),
            )
        return cls(**kwargs)


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


def _concentrate_nonneg(y: np.ndarray, Y: np.ndarray):
    """Maximize 2*y'a - a'Ya over a = (P, sigma_eps2) with a >= 0.

    Takes a batch of 2x2 systems, ``y (..., 2)`` and ``Y (..., 2, 2)``, and
    returns ``(alpha (..., 2), objective (...), degenerate (...))``.  Each
    system uses its interior stationary point when that is feasible,
    otherwise the best feasible edge, in closed form.
    """
    y1, y2 = y[..., 0], y[..., 1]
    Y11, Y12, Y22 = Y[..., 0, 0], Y[..., 0, 1], Y[..., 1, 1]
    det = Y11 * Y22 - Y12 * Y12
    degenerate = ~(det > 1e-12 * np.maximum(Y11 * Y22, np.finfo(float).tiny))
    with np.errstate(divide="ignore", invalid="ignore"):
        a1 = (Y22 * y1 - Y12 * y2) / det
        a2 = (Y11 * y2 - Y12 * y1) / det
        q_in = (Y22 * y1 * y1 - 2.0 * Y12 * y1 * y2 + Y11 * y2 * y2) / det
        edge1 = np.where(Y11 > 0.0, np.maximum(y1, 0.0) / Y11, 0.0)  # sigma_eps2 = 0
        edge2 = np.where(Y22 > 0.0, np.maximum(y2, 0.0) / Y22, 0.0)  # P = 0
    q1, q2 = edge1 * y1, edge2 * y2
    interior = ~degenerate & (a1 >= 0.0) & (a2 >= 0.0)
    first = q1 >= q2
    P = np.where(interior, a1, np.where(first, edge1, 0.0))
    noise = np.where(interior, a2, np.where(first, 0.0, edge2))
    return np.stack([P, noise], axis=-1), np.where(interior, q_in, np.where(first, q1, q2)), degenerate


def estimate_parametric(
    R_bar: CovarianceModel,
    config: ParametricEstimatorConfig,
    array: ArrayConfig,
) -> ParametricEstimate:
    """Fit ``(z0, sigma_z, P, sigma_eps2)`` under the assumed shape family.

    The (z0, sigma_z) plane is scanned on a coarse grid with power and noise
    concentrated out at every node, then the best node is polished by
    Nelder-Mead on the concentrated criterion.  The fitted coherence is even
    in sigma_z, so the polish runs unconstrained and the sign is dropped.
    """
    R = _checked_covariance(R_bar, array)
    z_amb = _search_domain(config, array)
    z_points = config.z0_grid or _default_grid_points(array, z_amb)
    refine_tol = _refine_tol(config, z_amb)
    sigma_max = config.sigma_grid.max if config.sigma_grid.max is not None else _SIGMA_MAX_REL * z_amb
    sigma_values = np.linspace(config.sigma_grid.min, sigma_max, config.sigma_grid.points)

    W, loaded = _weighting_flagged(R_bar, config.weighting)
    WRW = W @ R @ W
    z_step = z_amb / z_points
    z_grid = z_step * np.arange(z_points)
    A = np.exp(1j * np.outer(z_grid, array.kz))

    def basis(sigma) -> np.ndarray:
        # (shape, identity) pair of a reference profile: the shape enters only through sigma_z
        shape = shape_matrix(SourceProfile(config.assumed_shape, 0.0, abs(float(sigma)), 1.0), array)
        return np.stack([shape, np.eye(array.M)])

    # concentrated objective on the (z0, sigma) grid, restricted to
    # nonnegative power and noise, a chunk of sigma values at a time
    stacks = np.stack([basis(sigma) for sigma in sigma_values])
    objective = np.empty((z_points, sigma_values.size))
    for start in range(0, sigma_values.size, _SIGMA_CHUNK):
        chunk = slice(start, start + _SIGMA_CHUNK)
        y, Y = fit_terms_grid(stacks[chunk], A[:, None, :], W, WRW)
        objective[:, chunk] = _concentrate_nonneg(y, Y)[1]

    best_z, best_s = np.unravel_index(int(np.argmax(objective)), objective.shape)
    flags = {"pinv": False}

    def concentrated(point) -> tuple[np.ndarray, float, bool]:
        z, sigma = point
        y, Y = fit_terms(basis(sigma), steering_vector(array, z), W, WRW)
        alpha, q, degenerate = _concentrate_nonneg(y, Y)
        return alpha, float(q), bool(degenerate)

    def negated(point) -> float:
        _, q, degenerate = concentrated(point)
        flags["pinv"] = flags["pinv"] or degenerate
        return -q

    start = np.array([z_grid[best_z], sigma_values[best_s]])
    sigma_step = sigma_values[1] - sigma_values[0]
    simplex = np.array(
        [start, start + [0.5 * z_step, 0.0], start + [0.0, 0.5 * sigma_step]]
    )
    q_start = float(objective[best_z, best_s])
    result = minimize(
        negated,
        start,
        method="Nelder-Mead",
        options={
            "initial_simplex": simplex,
            "xatol": refine_tol,
            "fatol": 1e-9 * (1.0 + abs(q_start)),
            "maxiter": 4000,
            "maxfev": 8000,
        },
    )
    z0_hat = float(result.x[0]) % z_amb
    sigma_z_hat = abs(float(result.x[1]))

    alpha, q_final, pinv_final = concentrated([z0_hat, sigma_z_hat])
    # the objective is quartically flat in sigma near a point source, so the
    # polish can stall at a tiny spread; prefer the zero-spread boundary when
    # it matches the polished objective to numerical resolution
    if sigma_z_hat > 0.0:
        alpha0, q0, pinv0 = concentrated([z0_hat, 0.0])
        if q0 >= q_final - 1e-10 * (1.0 + abs(q_final)):
            sigma_z_hat, alpha, q_final, pinv_final = 0.0, alpha0, q0, pinv0
    cost = max(cost_constant(R, W) - q_final, 0.0)

    return ParametricEstimate(
        z0_hat=z0_hat,
        sigma_z_hat=sigma_z_hat,
        P_hat=float(alpha[0]),
        sigma_eps2_hat=float(alpha[1]),
        cost=float(cost),
        diagnostics=ParametricDiagnostics(
            weighting_loaded=loaded,
            pinv_used=bool(flags["pinv"] or pinv_final),
        ),
    )
