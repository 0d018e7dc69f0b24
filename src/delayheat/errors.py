"""Exception types shared across the package."""


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class TruncationExceededError(RuntimeError):
    """An evaluation time needs more series terms than the configured guard allows, or its
    series cancels past the limit of the closed form."""


class NonFiniteOutputError(RuntimeError):
    """A solver produced NaN or inf where a finite number was to be written."""
