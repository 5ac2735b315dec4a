"""Exception types shared across the package."""


class RabiSpectraError(Exception):
    """Base class for all package-specific errors."""


class InvalidParam(RabiSpectraError, ValueError):
    """A physical or numerical parameter is out of range or non-finite (a ``ValueError``)."""

    def __init__(self, field: str, message: str = ""):
        self.field = field
        super().__init__(f"invalid parameter '{field}'" + (f": {message}" if message else ""))


class NoConvergence(RabiSpectraError):
    """The eigensolver failed to meet its residual target."""


class ConvergenceFailure(RabiSpectraError):
    """Adaptive truncation hit the hard cap before all requested levels converged.

    Carries the best result obtained so far in ``result``.
    """

    def __init__(self, message: str, result=None):
        self.result = result
        super().__init__(message)


class DomainError(RabiSpectraError):
    """An operation was called outside its domain of validity."""


class NormLoss(RabiSpectraError):
    """A basis change lost more probability weight than the truncation allows."""


class FrameMismatch(RabiSpectraError):
    """Two states (or a state and an operator) live in different frames."""


class IncompleteBasis(RabiSpectraError):
    """The initial state leaks out of the span of the whole truncated eigenbasis."""
