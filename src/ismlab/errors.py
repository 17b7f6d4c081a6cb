"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Raised when a configuration value is out of its legal range."""


class DecompositionError(ArithmeticError):
    """Raised when the multi-step bias residual and its telescoping series
    disagree by more than the check allows, or by NaN."""


class NumericalError(ValueError, RuntimeError):
    """Raised when a computation meets or produces a non-finite value.

    It is a ValueError (a bad input point) and a RuntimeError (a failed run),
    so handlers written for either catch it. ``log`` holds the RunLog of a
    distillation up to the failure, when one was running.
    """

    log = None
