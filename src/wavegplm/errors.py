"""Exception hierarchy shared by all wavegplm modules."""


class WavegplmError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(WavegplmError):
    """Unknown name or invalid configuration value."""


class DimensionError(WavegplmError):
    """Mismatched or unsupported array dimensions (e.g. non-dyadic length)."""


class NumericError(WavegplmError):
    """Non-finite intermediate values."""


class DomainError(WavegplmError):
    """Argument outside the mathematical domain of an operation."""


class RankError(WavegplmError):
    """Singular weighted normal equations in the linear step."""


class FitError(WavegplmError):
    """Failure inside the backfitting loop, annotated with iteration context."""


class FitDivergenceError(FitError):
    """The fit is diverging: an iterate left the sup-norm bound, or the
    penalized criterion decreased persistently."""
