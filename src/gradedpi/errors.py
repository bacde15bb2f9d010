"""Exception types shared across the package."""


class GradedPIError(Exception):
    """Base class for all package errors."""


class MalformedElementError(GradedPIError):
    """A group element, word, or vector does not fit its declared ambient."""


class DegreeConflictError(GradedPIError):
    """The same variable id was declared with two different degrees."""


class ParseError(GradedPIError):
    """Text input does not match the polynomial or descriptor grammar."""


class GradedEvaluationError(GradedPIError):
    """An assigned algebra element is not homogeneous of the variable's degree."""


class AmbientMismatchError(GradedPIError):
    """Two objects with incompatible ambient dimensions or groups were combined."""


class GuardExceededError(GradedPIError):
    """A computation exceeded the configured resource guard.

    Carries a short human-readable account of the limit that tripped.
    """

    def __init__(self, message, *, cells=None, bits=None):
        super().__init__(message)
        self.cells = cells
        self.bits = bits


class TruncationError(GradedPIError):
    """The truncation level is too small for the requested computation."""


class UnsupportedFeatureError(GradedPIError):
    """The requested mode or construction is outside the supported catalogue."""


class InternalInconsistencyError(GradedPIError):
    """Two routes that must agree did not; indicates a bug, not bad input."""
