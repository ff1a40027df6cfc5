"""Oracles used to pin expected values independently.

The quadrature oracles integrate the reflectivity density directly with
``scipy.integrate.quad``, and the trace oracle evaluates the concentration
terms from full M x M matrix products, so the closed forms and contractions
in the package can be checked against slower but assumption-free
computations.  The Nelder-Mead oracle is ``scipy.optimize.minimize``, the
implementation :func:`tomoments.fitting.nelder_mead` ports bit for bit, and
the batched solve's oracle is the eigenvalue screen that
:func:`tomoments.fitting.solve_quadratic` certifies with a Cholesky
factorization.
"""

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import minimize

from tomoments import SourceProfile, density


def _support(profile: SourceProfile) -> tuple[float, float, tuple[float, ...]]:
    """Integration interval and interior break points for quad."""
    if profile.shape == "gaussian":
        lo = profile.z0 - 10.0 * profile.sigma_z
        hi = profile.z0 + 10.0 * profile.sigma_z
        return lo, hi, ()
    if profile.shape == "uniform":
        a = math.sqrt(3.0) * profile.sigma_z
        # edges are discontinuities of the density
        return profile.z0 - a, profile.z0 + a, ()
    raise ValueError(f"no quadrature support for shape {profile.shape!r}")


def characteristic_function_quadrature(profile: SourceProfile, xi: float) -> complex:
    """E[e^{j xi (z - z0)}] by direct integration of the centered density."""
    if profile.shape == "point":
        return 1.0 + 0.0j
    lo, hi, points = _support(profile)

    def integrand_real(z: float) -> float:
        return float(density(profile, z)) * math.cos(xi * (z - profile.z0))

    def integrand_imag(z: float) -> float:
        return float(density(profile, z)) * math.sin(xi * (z - profile.z0))

    re, _ = quad(integrand_real, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=200)
    im, _ = quad(integrand_imag, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=200)
    return complex(re, im)


def central_moment_quadrature(profile: SourceProfile, d: int) -> float:
    """d-th central moment of the shape by direct integration."""
    if profile.shape == "point":
        return 0.0 if d > 0 else 1.0
    lo, hi, _ = _support(profile)

    def integrand(z: float) -> float:
        return float(density(profile, z)) * (z - profile.z0) ** d

    with warnings.catch_warnings():
        # odd moments integrate to zero, where the relative target is moot
        warnings.simplefilter("ignore", IntegrationWarning)
        value, _ = quad(integrand, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=200)
    return value


def fit_terms_trace_oracle(stack, a, W, WRW):
    """Complex concentration terms from explicit traces, no real cast.

    ``y_i = tr(S_i^H W Rbar W)`` and ``Y_ik = tr(S_i^H W S_k W)`` with
    ``S_i = Phi H_i Phi^H`` and ``Phi = diag(a)``.
    """
    Phi = np.diag(a)
    S = [Phi @ H @ Phi.conj().T for H in stack]
    y = np.array([np.trace(Si.conj().T @ WRW) for Si in S])
    Y = np.array([[np.trace(Si.conj().T @ W @ Sk @ W) for Sk in S] for Si in S])
    return y, Y


def random_psd_covariance(rng: np.random.Generator, M: int, scale: float = 1.0):
    """Random Hermitian PSD matrix with a strictly positive diagonal ridge."""
    F = rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))
    A = F @ F.conj().T / M * scale
    A = A + scale * 1e-3 * np.eye(M)
    return 0.5 * (A + A.conj().T)


def nelder_mead_scipy(f, simplex, bounds, xatol, fatol, maxiter, maxfev):
    """:func:`tomoments.fitting.nelder_mead`'s search, run by scipy's Nelder-Mead.

    ``f`` receives each point as a float array; ``bounds`` takes infinite
    ends for free coordinates, which scipy reads as ``None``.
    """
    simplex = np.array(simplex, dtype=float)
    options = {"initial_simplex": simplex, "xatol": xatol, "fatol": fatol, "maxiter": maxiter, "maxfev": maxfev}
    return minimize(f, simplex[0], method="Nelder-Mead", bounds=bounds, options=options)


def solve_quadratic_eigvalsh_oracle(y, Y):
    """:func:`tomoments.fitting.solve_quadratic` on a batch, screened by eigenvalues only.

    Every equilibrated system whose smallest eigenvalue is at most 1e-12 of
    its largest takes the pseudo-inverse; the rest are solved together.
    Returns ``(alpha, objective, used_pinv)``.
    """
    diag = np.einsum("zkk->zk", Y)
    scale = np.sqrt(np.where(np.isfinite(diag) & (diag > 0.0), diag, 1.0))
    Ys = Y / (scale[:, :, None] * scale[:, None, :])
    ys = y / scale
    eigenvalues = np.linalg.eigvalsh(Ys)
    bad = (eigenvalues[:, 0] <= eigenvalues[:, -1] * 1e-12) | ~np.all(np.isfinite(eigenvalues), axis=-1)
    beta = np.empty_like(ys)
    good = ~bad
    if np.any(good):
        beta[good] = np.linalg.solve(Ys[good], ys[good][..., None])[..., 0]
    for (i,) in np.argwhere(bad):
        beta[i] = np.linalg.pinv(Ys[i], rcond=1e-12) @ ys[i]
    alpha = beta / scale
    objective = np.clip(np.einsum("zk,zk->z", ys, beta), 0.0, None)
    return alpha, objective, bool(np.any(bad))
