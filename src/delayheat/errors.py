"""Exception types shared across the package."""


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class TruncationExceededError(RuntimeError):
    """An evaluation time needs more series terms than the configured guard allows."""


class UndefinedEstimateError(RuntimeError):
    """A fit or estimate cannot be formed from the given data (e.g. all-zero window)."""


class UnsupportedConfigurationError(ValueError):
    """A configuration combination is outside what a command supports."""


class NonFiniteOutputError(RuntimeError):
    """A solver produced NaN or inf where a finite number was to be written."""
