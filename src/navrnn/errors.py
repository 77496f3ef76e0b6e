"""Exception hierarchy shared across the toolkit, and the one loader and the
one field check of config dataclasses: `from_json` builds a config at any
level, and each config's `__post_init__` calls `check_fields`."""

import math
from dataclasses import MISSING, fields
from functools import cache
from numbers import Integral, Real
from types import NoneType, UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np


class NavError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(NavError):
    """Data violates a structural invariant (ordering, finiteness, norms)."""


class DataError(NavError):
    """Data is missing, malformed, or unusable for the requested operation."""


class ConfigError(NavError):
    """Configuration values are inconsistent or out of range."""


class EmptyBinError(DataError):
    """An averaging bin contains no inertial samples."""


class CheckpointError(DataError):
    """Checkpoint file is corrupt, truncated, or incomplete."""


class TrainingDivergedError(NavError):
    """Loss became non-finite during optimization."""


_ARRAY = ("an array", lambda v: isinstance(v, (list, tuple)))
# declared type -> (what a value must be, the test of a value)
_KINDS = {
    int: ("an integer", lambda v: isinstance(v, Integral) and not isinstance(v, bool)),
    float: ("a finite number", lambda v: isinstance(v, Real) and not isinstance(v, bool) and math.isfinite(v)),
    str: ("a string", lambda v: isinstance(v, str)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    list: _ARRAY,
    tuple: _ARRAY,
    dict: ("an object", lambda v: isinstance(v, dict)),
}


@cache
def _declared(cls) -> dict:
    """name -> (kind, None allowed) of each field of cls declared as a _KINDS type, alone or `| None`."""
    hints, found = get_type_hints(cls), {}
    for f in fields(cls):
        options = get_args(hints[f.name]) if isinstance(hints[f.name], UnionType) else (hints[f.name],)
        kinds = [get_origin(o) or o for o in options if o is not NoneType]
        if len(kinds) == 1 and kinds[0] in _KINDS:
            found[f.name] = (kinds[0], NoneType in options)
    return found


def check_fields(config, **minimums) -> None:
    """Raise ConfigError unless each field of config declared as int, float,
    str, bool, list, tuple or dict holds that kind: an int is no bool, a float
    a finite number and no bool, a list or tuple any array, and a `| None`
    field may hold None. Fields named in minimums must be at least that."""
    for name, (kind, optional) in _declared(type(config)).items():
        value = getattr(config, name)
        text, ok = _KINDS[kind]
        minimum = minimums.get(name)
        if not (value is None and optional) and (not ok(value) or minimum is not None and value < minimum):
            raise ConfigError(f"{name} must be {text}{'' if minimum is None else f' >= {minimum}'}, got {value!r}")


def finite_vector(value, name: str, size: int | None = None) -> np.ndarray:
    """value as a flat float64 array of finite numbers, of size entries when
    given; anything else raises ConfigError naming name."""
    try:
        vector = np.asarray(value, dtype=np.float64).reshape(-1)
    except (TypeError, ValueError):
        vector = np.array([np.nan])
    if (size is not None and vector.size != size) or not np.all(np.isfinite(vector)):
        raise ConfigError(f"{name} must be {size or 'an array of'} finite numbers, got {value!r}")
    return vector


def from_json(cls, value, what: str, **defaults):
    """A cls config built from value, a parsed JSON object, with defaults for
    the keys it lacks; a null key counts as missing, and an instance of cls
    passes through. A value that is not an object, an unknown key or a
    missing required key raises ConfigError naming what."""
    if isinstance(value, cls):
        return value
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be a JSON object, got {value!r}")
    declared = [f for f in fields(cls) if f.init]
    if unknown := sorted(set(value) - {f.name for f in declared}):
        raise ConfigError(f"unknown {what} key(s) {unknown}")
    given = {key: v for source in (defaults, value) for key, v in source.items() if v is not None}
    required = [f.name for f in declared if f.default is MISSING and f.default_factory is MISSING]
    if missing := [name for name in required if name not in given]:
        raise ConfigError(f"{what} needs {missing}")
    return cls(**given)
