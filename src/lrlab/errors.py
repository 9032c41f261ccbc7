"""Exception hierarchy shared across the package.

ValidationError covers bad inputs (contract violations); NumericalError
covers runtime numerical failures (non-convergence, gap closure, ...).
The CLI maps them to exit codes 1 and 2 respectively.
"""


class LrlabError(Exception):
    """Base class for all package errors."""


class ValidationError(LrlabError, ValueError):
    """Input violates a documented precondition (bad matrix, bad config, ...)."""


class NumericalError(LrlabError, RuntimeError):
    """A numerical procedure failed at runtime."""


class IntegrationError(NumericalError):
    """Propagator integration did not converge to the requested tolerance."""

    def __init__(self, message: str, defect: float | None = None):
        super().__init__(message)
        self.defect = defect


class LevelCrossingError(NumericalError):
    """The tracked ground level changed dimension along the schedule."""


class GapClosureError(NumericalError):
    """No level lies above the tracked ground level: the gap closed."""


class InsufficientCrossingsError(NumericalError):
    """Fewer than two levels crossed the amplitude threshold.

    Carries the partial crossing data so callers can inspect what was found.
    """

    def __init__(self, message: str, crossings: dict[int, float] | None = None):
        super().__init__(message)
        self.crossings = dict(crossings or {})
