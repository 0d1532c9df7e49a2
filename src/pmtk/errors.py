"""Exception taxonomy shared across the toolkit, and the check of a finite
setting that its configs share."""

import math


class PmtkError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(PmtkError):
    """Shapes or extents are incompatible with the requested operation."""


class ConfigError(PmtkError):
    """A configuration value is outside its legal range."""


class DataError(PmtkError):
    """Input data violates a contract (labels out of range, empty dataset...)."""


class FormatError(PmtkError):
    """A file does not conform to its declared on-disk format."""


class UsageError(PmtkError):
    """An API was called in an unsupported way (e.g. backward on a non-scalar)."""


class DivergenceError(PmtkError):
    """Training produced a non-finite value (step size too large for the model)."""


def check_finite(name: str, value: float, *, positive: bool = True) -> None:
    """Raise ConfigError unless ``value`` is finite and above 0, or at least 0
    if not ``positive``. A NaN passes a plain ``value <= 0`` check."""
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        kind = "positive" if positive else "nonnegative"
        raise ConfigError(f"{name} must be {kind} and finite, got {value}")
