"""Exception taxonomy shared across the toolkit."""


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
