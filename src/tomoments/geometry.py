"""Acquisition geometry: interferometric wavenumbers, steering vectors, resolutions.

Counts and lengths are checked by the rules of :mod:`tomoments._fields`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fields import count, items, real

__all__ = [
    "MAX_DIFFERENCE_ORDER",
    "ArrayConfig",
    "make_uniform_array",
    "fourier_resolution",
    "steering_vector",
    "baseline_differences",
]

# (delta kz)^d loses all precision well before d reaches this for realistic
# geometries; moment orders used in practice stay at or below 6.
MAX_DIFFERENCE_ORDER = 12

_TWO_PI = 2.0 * math.pi


def _uniform_period(kz: np.ndarray) -> float | None:
    """Common vertical period of the steering vectors, if the spacing is uniform."""
    steps = np.diff(kz)
    if np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        return float(_TWO_PI / steps[0])
    return None


@dataclass(frozen=True)
class ArrayConfig:
    """Wavenumber configuration of a multibaseline acquisition stack.

    Parameters
    ----------
    kz : array_like
        Interferometric vertical wavenumbers in rad/m, strictly increasing,
        at least two of them.
    ambiguity : float, optional
        Common vertical period of all steering vectors, in m: every lag
        ``(kz - kz[0]) * ambiguity / 2 pi`` must be a whole number (to a
        relative 1e-9, the tolerance of uniform spacing), or the array is
        refused.  Derived automatically for uniformly spaced arrays;
        ``None`` when the array has no known period.
    """

    kz: np.ndarray
    ambiguity: float | None = None

    def __post_init__(self) -> None:
        kz = np.array(self.kz, dtype=float, copy=True)
        if kz.ndim != 1 or kz.size < 2:
            raise ValueError("kz must be a 1-d sequence with at least two wavenumbers")
        if not np.all(np.isfinite(kz)):
            raise ValueError("kz must contain finite values only")
        if not np.all(np.diff(kz) > 0.0):
            raise ValueError("kz must be strictly increasing")
        kz.setflags(write=False)
        object.__setattr__(self, "kz", kz)
        amb = _uniform_period(kz) if self.ambiguity is None else real(self.ambiguity, "ambiguity", above=0.0)
        lags = (kz - kz[0]) * (amb / _TWO_PI) if self.ambiguity is not None else 0.0
        if not np.allclose(lags, np.rint(lags), rtol=1e-9, atol=0.0):
            raise ValueError(f"ambiguity {amb} m is not a period: (kz - kz[0]) * ambiguity / 2 pi must be integral")
        object.__setattr__(self, "ambiguity", amb)

    def _key(self) -> tuple:
        return self.kz.tobytes(), self.ambiguity

    def __eq__(self, other) -> bool:
        """Equal when the wavenumbers agree bit for bit and the ambiguities agree."""
        if not isinstance(other, ArrayConfig):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def M(self) -> int:
        """Number of acquisitions."""
        return int(self.kz.size)

    def _is_canonical_uniform(self) -> bool:
        if self.ambiguity is None or self.kz[0] != 0.0:
            return False
        ref = _TWO_PI * np.arange(self.M) / self.ambiguity
        return bool(np.allclose(self.kz, ref, rtol=0.0, atol=1e-12 * max(self.kz[-1], 1.0)))

    def to_json(self) -> dict:
        """JSON-serializable form, ``{"M", "z_amb"}`` for canonical uniform arrays; other
        arrays write ``kz``, and ``ambiguity`` when it is not the one ``kz`` implies."""
        if self._is_canonical_uniform():
            return {"M": self.M, "z_amb": float(self.ambiguity)}
        out = {"kz": self.kz.tolist()}
        if self.ambiguity != _uniform_period(self.kz):
            out["ambiguity"] = self.ambiguity
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "ArrayConfig":
        """Accepts ``{"kz": [...]}``, optionally with ``"ambiguity"``, or ``{"M": int, "z_amb": float}``,
        and no other key."""
        if not isinstance(obj, dict):
            raise ValueError(f"array config must be an object, got {obj!r}")
        if obj.keys() in ({"kz"}, {"kz", "ambiguity"}):
            return cls([real(k, "kz") for k in items(obj["kz"], "kz")], obj.get("ambiguity"))
        if obj.keys() == {"M", "z_amb"}:
            return make_uniform_array(obj["M"], obj["z_amb"])
        raise ValueError(f"array config needs 'kz' (and 'ambiguity') or 'M' and 'z_amb' alone, got keys {sorted(obj)}")


def make_uniform_array(M: int, z_amb: float) -> ArrayConfig:
    """Uniform wavenumber stack ``kz_n = 2 pi n / z_amb`` for n = 0..M-1.

    The resulting steering vectors all share the exact vertical period
    ``z_amb`` (the height ambiguity), which is stored on the config.

    Parameters
    ----------
    M : int
        Number of acquisitions, at least 2.
    z_amb : float
        Height ambiguity in m, positive.
    """
    M = count(M, "M", least=2)
    z_amb = real(z_amb, "z_amb", above=0.0)
    kz = _TWO_PI * np.arange(M) / z_amb
    return ArrayConfig(kz, ambiguity=z_amb)


def fourier_resolution(config: ArrayConfig) -> float:
    """Rayleigh vertical resolution ``2 pi / (kz_max - kz_min)`` in m."""
    return float(_TWO_PI / (config.kz[-1] - config.kz[0]))


def steering_vector(config: ArrayConfig, z: float) -> np.ndarray:
    """Complex steering vector ``exp(j kz_n z)`` at height z (m)."""
    return np.exp(1j * config.kz * _finite_height(z))


def _finite_height(z) -> float:
    """The height z as a float, refused with ``ValueError`` when it is not finite."""
    z = float(z)
    if not math.isfinite(z):
        raise ValueError("z must be finite")
    return z


def baseline_differences(config: ArrayConfig) -> np.ndarray:
    """Matrix of wavenumber differences ``kz_n - kz_m`` (row n, column m)."""
    kz = config.kz
    return kz[:, None] - kz[None, :]


def _sorted_distinct(values) -> np.ndarray:
    """The distinct values of an array without NaN, flattened and sorted: ``np.unique(values)``.

    ``np.unique`` without ``return_*`` flags imports ``numpy.ma`` (numpy 2.4:
    about 16 ms of a fresh interpreter's start on a 2-vCPU x86 VM), which no
    other step of a run needs.
    """
    ordered = np.sort(values, axis=None)
    keep = np.empty(ordered.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]
