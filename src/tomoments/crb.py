"""Cramer-Rao bounds for the scatterer parameters.

Slepian-Bangs form for zero-mean circular complex Gaussian snapshots:
``FIM_ij = N tr(R^{-1} dR/dtheta_i R^{-1} dR/dtheta_j)`` over the parameter
vector ``theta = (z0, sigma_z, P, sigma_eps2)``.
"""

from __future__ import annotations

import numpy as np

from ._fields import count, real
from .geometry import ArrayConfig, baseline_differences, steering_vector
from .profiles import (
    SourceProfile,
    _char_fn_sigma_derivative,
    characteristic_function,
    true_covariance,
)

__all__ = [
    "PARAMETERS",
    "SingularFimError",
    "covariance_derivatives",
    "fisher_information",
    "crb_stddev",
]

PARAMETERS = ("z0", "sigma_z", "P", "sigma_eps2")

_CONDITION_LIMIT = 1e12


class SingularFimError(ValueError):
    """Raised when the Fisher information is singular (parameter not identifiable)."""


def covariance_derivatives(
    profile: SourceProfile, config: ArrayConfig, sigma_eps2: float
) -> dict:
    """Analytic derivatives of the covariance w.r.t. each parameter.

    Returns Hermitian M x M matrices keyed by the names in ``PARAMETERS``.
    The profile shape must depend smoothly on sigma_z, which excludes the
    point shape.
    """
    if profile.shape == "point":
        raise ValueError("covariance derivatives need a spread shape (uniform or gaussian)")
    deltas = baseline_differences(config)
    a = steering_vector(config, profile.z0)
    E = np.outer(a, a.conj())
    phat = characteristic_function(profile, deltas)
    dphat = _char_fn_sigma_derivative(profile, deltas)
    derivatives = {
        "z0": profile.P * phat * (1j * deltas) * E,
        "sigma_z": profile.P * dphat * E,
        "P": phat * E,
        "sigma_eps2": np.eye(config.M, dtype=complex),
    }
    return {name: 0.5 * (D + D.conj().T) for name, D in derivatives.items()}


def fisher_information(
    profile: SourceProfile, config: ArrayConfig, sigma_eps2: float, N: int
) -> np.ndarray:
    """Fisher information matrix for ``(z0, sigma_z, P, sigma_eps2)`` at N snapshots.

    ``N`` is a count (see :mod:`tomoments._fields`).  Raises
    :class:`SingularFimError` when a parameter carries no information (for
    example sigma_z at sigma_z = 0, where the shape derivative vanishes).
    """
    N = count(N, "N", least=1)
    R = true_covariance(profile, config, sigma_eps2).matrix
    eigenvalues, vectors = np.linalg.eigh(R)
    if eigenvalues[0] <= 0.0:
        raise SingularFimError("covariance is singular; add noise power")
    R_inv = (vectors / eigenvalues) @ vectors.conj().T
    derivatives = covariance_derivatives(profile, config, sigma_eps2)
    whitened = [R_inv @ derivatives[name] for name in PARAMETERS]
    n_params = len(PARAMETERS)
    fim = np.empty((n_params, n_params))
    for i in range(n_params):
        for k in range(i, n_params):
            value = float(np.real(np.einsum("nm,mn->", whitened[i], whitened[k])))
            fim[i, k] = fim[k, i] = N * value
    scale = float(np.max(np.abs(fim)))
    if np.any(np.diag(fim) <= 1e-15 * scale):
        raise SingularFimError("a parameter carries no Fisher information in this scenario")
    return fim


def crb_stddev(fim: np.ndarray, n_scale: float = 1.0) -> dict:
    """Standard-deviation bounds ``sqrt(diag(FIM^{-1}) / n_scale)``, keyed by
    parameter name in ``PARAMETERS`` order.

    ``n_scale`` rescales the snapshot count the information was computed at
    (bounds fall as ``1/sqrt(N)``), so one information matrix serves a whole
    sweep.
    """
    fim = np.asarray(fim, dtype=float)
    if fim.shape != (len(PARAMETERS), len(PARAMETERS)):
        raise ValueError("FIM must be 4 x 4 over (z0, sigma_z, P, sigma_eps2)")
    n_scale = real(n_scale, "n_scale", above=0.0)
    eigenvalues = np.linalg.eigvalsh(fim)
    if eigenvalues[0] <= 0.0 or eigenvalues[-1] / eigenvalues[0] > _CONDITION_LIMIT:
        raise SingularFimError("Fisher information is singular or too ill-conditioned to invert")
    inverse = np.linalg.inv(fim)
    bounds = np.sqrt(np.diag(inverse) / n_scale)
    return {name: float(b) for name, b in zip(PARAMETERS, bounds)}
