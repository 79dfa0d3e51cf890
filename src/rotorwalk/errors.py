"""Exception types shared across the package."""


class RotorWalkError(Exception):
    """Base class for all package errors."""


class InvalidParameter(RotorWalkError, ValueError):
    """An argument violates a documented precondition."""


class GraphInvalid(RotorWalkError, ValueError):
    """A graph fails validation (parse error, asymmetry, disconnection, bad sinks...)."""


class NonConvergence(RotorWalkError, RuntimeError):
    """The linear solver could not reach the requested residual tolerance."""


class AbortedMaxSteps(RotorWalkError, RuntimeError):
    """A walk or experiment exhausted its step budget before terminating."""


class DimensionMismatch(RotorWalkError, ValueError):
    """Arrays or tables built for a different graph/mechanism were supplied."""
