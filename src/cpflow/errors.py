"""Exception types shared across the toolkit."""


class CpflowError(Exception):
    """Base class for toolkit errors."""


class DomainError(CpflowError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InadmissibleProfileError(CpflowError, ValueError):
    """The base profile violates the no-reversal admissibility condition."""


class NearSingularSystemError(CpflowError, RuntimeError):
    """A linear solve hit a numerically singular system.

    Expected at inadmissible profiles near neutral parameters, where the
    homogeneous operator genuinely loses injectivity.
    """

    def __init__(self, message, rcond=None):
        super().__init__(message)
        self.rcond = rcond


class ResolutionError(CpflowError, RuntimeError):
    """Requested data are not resolved at the current truncation."""


class BallEscapeError(CpflowError, RuntimeError):
    """A fixed-point iterate left the prescribed ball (forcing too large)."""

    def __init__(self, message, iterate_norm=None, delta=None):
        super().__init__(message)
        self.iterate_norm = iterate_norm
        self.delta = delta


class NonContractionError(CpflowError, RuntimeError):
    """Successive fixed-point increments stopped contracting."""


class BracketError(CpflowError, ValueError):
    """A root/extremum search was given a bracket without the sought feature."""


class NeutralToleranceError(CpflowError, RuntimeError):
    """Neutral-point search could not reach the requested tolerance.

    Carries the best iterate found so far in ``best``.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class ConfigError(CpflowError, ValueError):
    """Invalid command-line / config-file input."""


class BaselineMismatchError(CpflowError):
    """A measured constant left its baseline tolerance (exit 4)."""
