"""Vertical reflectivity profiles and the covariance matrices they induce.

A diffuse scatterer is modeled as a unit-mass, zero-mean density shape
``p`` scaled by a total power P and centered at height z0.  The second-order
signature of the stack is fully described by the characteristic function of
``p`` sampled at the wavenumber differences of the acquisition geometry.
Heights, spreads, powers and moment orders are checked by
:mod:`tomoments._fields`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fields import choice, count, from_json, real, to_json
from .geometry import ArrayConfig, baseline_differences, steering_vector

__all__ = [
    "SHAPES",
    "SourceProfile",
    "CovarianceModel",
    "characteristic_function",
    "shape_characteristic",
    "central_moment",
    "density",
    "shape_matrix",
    "true_covariance",
]

SHAPES = ("point", "uniform", "gaussian")

_SQRT3 = math.sqrt(3.0)

# Hermitian / positive semidefinite admission tolerances, relative to scale.
_HERMITIAN_RTOL = 1e-10
_PSD_RTOL = 1e-10


@dataclass(frozen=True)
class SourceProfile:
    """Scatterer profile: a named density shape with power, height and spread.

    Parameters
    ----------
    shape : str
        One of ``"point"``, ``"uniform"``, ``"gaussian"``.
    z0 : float
        Mean height of the profile in m.
    sigma_z : float
        Standard deviation of the density in m (0 for a point).  The uniform
        shape has support half-width ``sigma_z * sqrt(3)``.
    P : float
        Total backscattered power, strictly positive.
    """

    shape: str
    z0: float
    sigma_z: float
    P: float

    def __post_init__(self) -> None:
        choice(self.shape, SHAPES, "shape")
        object.__setattr__(self, "z0", real(self.z0, "z0"))
        object.__setattr__(self, "sigma_z", real(self.sigma_z, "sigma_z", least=0.0))
        object.__setattr__(self, "P", real(self.P, "P", above=0.0))
        if self.shape == "point" and self.sigma_z != 0.0:
            raise ValueError("a point profile has sigma_z = 0")

    def to_json(self) -> dict:
        return to_json(self)

    @classmethod
    def from_json(cls, obj: dict) -> "SourceProfile":
        return from_json(cls, obj)


def characteristic_function(profile: SourceProfile, xi) -> np.ndarray:
    """Characteristic function of the centered density at spatial frequency xi.

    Closed forms in :func:`shape_characteristic`.  Broadcasts over
    array-valued xi.
    """
    return shape_characteristic(profile.shape, profile.sigma_z, xi).astype(complex)[()]


def shape_characteristic(shape: str, sigma_z, xi) -> np.ndarray:
    """Characteristic function of a shape family, real, broadcasting sigma_z against xi.

    Closed forms: 1 for a point, ``exp(-(sigma_z xi)^2 / 2)`` for a gaussian,
    ``sin(a xi) / (a xi)`` with ``a = sigma_z sqrt(3)`` for a uniform.  All
    three are real and even in xi.  One call evaluates a whole grid of
    spreads, e.g. ``sigma_z (S, 1)`` against ``xi (F,)`` gives ``(S, F)``.
    """
    choice(shape, SHAPES, "shape")
    sigma = np.asarray(sigma_z, dtype=float)
    x = np.asarray(xi, dtype=float)
    if shape == "point":
        return np.ones(np.broadcast_shapes(sigma.shape, x.shape))
    if shape == "gaussian":
        return np.exp(-0.5 * (sigma * x) ** 2)
    half_width = _SQRT3 * sigma
    return np.sinc(half_width * x / np.pi)


def _char_fn_sigma_derivative(profile: SourceProfile, xi) -> np.ndarray:
    """d/d(sigma_z) of the characteristic function, at the profile's sigma_z."""
    x = np.asarray(xi, dtype=float)
    sigma = profile.sigma_z
    if profile.shape == "gaussian":
        return -sigma * x**2 * np.exp(-0.5 * (sigma * x) ** 2)
    if profile.shape == "uniform":
        u = _SQRT3 * sigma * x
        small = np.abs(u) < 1e-4
        # (u cos u - sin u) / u^2, with its series at small u to avoid 0/0
        with np.errstate(invalid="ignore", divide="ignore"):
            g = (u * np.cos(u) - np.sin(u)) / u**2
        g = np.where(small, -u / 3.0 + u**3 / 30.0, g)
        return _SQRT3 * x * g
    raise ValueError("the point profile has no sigma_z dependence")


def central_moment(profile: SourceProfile, d: int) -> float:
    """Central moment of order d of the profile density.

    Odd orders vanish for all supported shapes.  Even orders:
    ``sigma_z^d (d-1)!!`` for the gaussian and ``a^d / (d+1)`` with
    ``a = sigma_z sqrt(3)`` for the uniform.
    """
    d = count(d, "d")
    if d == 0:
        return 1.0
    if d % 2 == 1 or profile.shape == "point":
        return 0.0
    if profile.shape == "gaussian":
        double_factorial = 1.0
        for k in range(d - 1, 0, -2):
            double_factorial *= k
        return profile.sigma_z**d * double_factorial
    half_width = _SQRT3 * profile.sigma_z
    return half_width**d / (d + 1)


def density(profile: SourceProfile, z) -> np.ndarray:
    """Profile density evaluated at absolute height z (unit mass, mean z0).

    Only defined for spread-out shapes; a point (or a zero-spread shape) is a
    Dirac mass and has no density function.
    """
    if profile.shape == "point" or profile.sigma_z == 0.0:
        raise ValueError("density is undefined for a point (sigma_z = 0) profile")
    x = np.asarray(z, dtype=float) - profile.z0
    if profile.shape == "gaussian":
        s = profile.sigma_z
        out = np.exp(-0.5 * (x / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
    else:
        half_width = _SQRT3 * profile.sigma_z
        out = np.where(np.abs(x) <= half_width, 0.5 / half_width, 0.0)
    return out[()]


def shape_matrix(profile: SourceProfile, config: ArrayConfig) -> np.ndarray:
    """Coherence shape matrix: characteristic function at each ``kz_n - kz_m``.

    Hermitian with unit diagonal and entries of modulus at most one.
    """
    B = characteristic_function(profile, baseline_differences(config))
    return 0.5 * (B + B.conj().T)


def true_covariance(profile: SourceProfile, config: ArrayConfig, sigma_eps2: float) -> "CovarianceModel":
    """Exact snapshot covariance of the profile plus white noise.

    Entry (n, m) is ``P * phat(kz_n - kz_m) * exp(j (kz_n - kz_m) z0)`` off
    the diagonal and ``P + sigma_eps2`` on it.

    Parameters
    ----------
    profile : SourceProfile
    config : ArrayConfig
    sigma_eps2 : float
        Noise power, nonnegative.
    """
    sigma_eps2 = real(sigma_eps2, "sigma_eps2", least=0.0)
    a = steering_vector(config, profile.z0)
    B = shape_matrix(profile, config)
    R = profile.P * np.outer(a, a.conj()) * B + sigma_eps2 * np.eye(config.M)
    R = 0.5 * (R + R.conj().T)
    return CovarianceModel(R)


@dataclass(frozen=True)
class CovarianceModel:
    """A checked covariance matrix, stored read-only as complex.

    The matrix must be square and finite, Hermitian to a relative 1e-10 of
    its Frobenius norm, and positive semidefinite: its smallest eigenvalue
    is at least ``-1e-10 * max(trace, 0)``.  Each check refuses with a
    ``ValueError``.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        R = np.array(self.matrix, dtype=complex, copy=True)
        if R.ndim != 2 or R.shape[0] != R.shape[1]:
            raise ValueError("covariance matrix must be square")
        if not np.all(np.isfinite(R)):
            raise ValueError("covariance matrix must be finite")
        scale = float(np.linalg.norm(R))
        if np.linalg.norm(R - R.conj().T) > _HERMITIAN_RTOL * max(scale, 1e-300):
            raise ValueError("covariance matrix must be Hermitian")
        trace = float(np.real(np.trace(R)))
        min_eig = float(np.linalg.eigvalsh(R)[0]) if scale > 0.0 else 0.0
        if min_eig < -_PSD_RTOL * max(trace, 0.0):
            raise ValueError("covariance matrix must be positive semidefinite")
        R.setflags(write=False)
        object.__setattr__(self, "matrix", R)

    @property
    def M(self) -> int:
        return int(self.matrix.shape[0])
