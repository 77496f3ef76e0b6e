"""Exception hierarchy shared across the toolkit, and the one type and
range check of config dataclass fields."""

import math
from numbers import Integral, Real


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


def check_fields(config, ints: dict | None = None, floats: dict | None = None) -> None:
    """Raise ConfigError unless each field of config named in ints is an
    integer (not a bool) and each named in floats a finite number, and each is
    at least the minimum the name maps to (None: no minimum)."""
    for name, minimum in (*(ints or {}).items(), *(floats or {}).items()):
        value = getattr(config, name)
        if name in (ints or {}):
            kind, ok = "an integer", isinstance(value, Integral) and not isinstance(value, bool)
        else:
            kind, ok = "a finite number", isinstance(value, Real) and math.isfinite(value)
        if not ok or (minimum is not None and value < minimum):
            raise ConfigError(f"{name} must be {kind}{'' if minimum is None else f' >= {minimum}'}, got {value!r}")
