"""The one rule for scalar values that come from outside: specs, configs and library calls.

- A number is a Python or numpy int or float, finite; never ``bool``,
  ``numpy.bool_`` or a string.  :func:`real` returns it as a float.
- A count is an integral number (``100.0`` counts); :func:`count` returns an
  int, exact for an int input (a seed above 2**53 is not rounded).
- A flag is ``True`` or ``False``; a choice is one string of a fixed tuple.
- A list is a list, tuple or numpy array (a JSON array); :func:`items`
  returns it as a tuple.

Every refusal is a :class:`ValueError` naming the field.  Spec and config
dataclasses serialize field by field with :func:`to_json` and :func:`from_json`.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

_NUMBERS = (int, float, np.integer, np.floating)


def _refuse_non_number(value, name: str, what: str) -> None:
    # bool is an int; numpy.bool_ is none of _NUMBERS
    if isinstance(value, bool) or not isinstance(value, _NUMBERS):
        raise ValueError(f"{name} must be {what}, got {value!r}")


def real(value, name: str, *, least: float | None = None, above: float | None = None) -> float:
    """``value`` as a finite float, at least ``least`` and greater than ``above`` when given."""
    if type(value) is not float:  # a plain float, the common case, needs no type check
        _refuse_non_number(value, name, "a number")
        try:
            value = float(value)
        except OverflowError:  # an int beyond the float range
            value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")
    if above is not None and not value > above:
        raise ValueError(f"{name} must be > {above}, got {value!r}")
    return value


def count(value, name: str, *, least: int = 0, most: int | None = None) -> int:
    """``value`` as an int in ``[least, most]``; a fractional or non-finite float is refused."""
    if type(value) is not int:
        _refuse_non_number(value, name, "an integer")
        if isinstance(value, (float, np.floating)) and not float(value).is_integer():
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if value < least or (most is not None and value > most):
        bounds = f">= {least}" if most is None else f"in [{least}, {most}]"
        raise ValueError(f"{name} must be an integer {bounds}, got {value!r}")
    return value


def flag(value, name: str) -> None:
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")


def choice(value, options: tuple, name: str) -> str:
    if not (isinstance(value, str) and value in options):
        raise ValueError(f"{name} must be one of {options}, got {value!r}")
    return value


def items(value, name: str) -> tuple:
    if not isinstance(value, (list, tuple, np.ndarray)):
        raise ValueError(f"{name} must be a list, got {value!r}")
    return tuple(value)


def to_json(obj) -> dict:
    """The fields of dataclass ``obj`` in order, except None and a default factory's value.

    Nested dataclasses write their own ``to_json``; tuples become lists.
    """
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if value is None or (f.default_factory is not dataclasses.MISSING and value == f.default_factory()):
            continue
        out[f.name] = _json_value(value)
    return out


def _json_value(value):
    if isinstance(value, tuple):
        return [_json_value(item) for item in value]
    return value.to_json() if dataclasses.is_dataclass(value) else value


def from_json(cls, obj, *, accept: tuple = (), **nested):
    """Dataclass ``cls`` from the JSON object ``obj``.

    Each field's value passes to the constructor untouched, so its checks
    see it, or through ``nested[name]`` for a nested object.  A key that
    names no field and is not in ``accept`` (keys the caller reads itself)
    and a missing field without a default are each a :class:`ValueError`.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{cls.__name__} JSON must be an object, got {obj!r}")
    fields = dataclasses.fields(cls)
    for key in obj.keys() - {f.name for f in fields} - set(accept):
        raise ValueError(f"{cls.__name__} JSON has no field {key!r}")
    kwargs = {}
    for f in fields:
        if f.name in obj:
            kwargs[f.name] = nested[f.name](obj[f.name]) if f.name in nested else obj[f.name]
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ValueError(f"{cls.__name__} JSON needs the field {f.name!r}")
    return cls(**kwargs)
