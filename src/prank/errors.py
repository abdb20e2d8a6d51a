"""Exception types raised across the package."""


class PrankError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(PrankError):
    """Operation applied to a dataset in the wrong spectral domain."""


class AxisError(PrankError):
    """Spectral axis does not satisfy an operation's requirements."""


class LengthError(PrankError):
    """Series or record length unsuitable for the requested transform."""


class DimensionMismatch(PrankError):
    """Array dimensions inconsistent with the requested reshape."""


class ShapeMismatch(PrankError):
    """Two datasets that must share shape/axes do not."""


class ShapeError(PrankError):
    """Dataset shape unsuitable for the requested filter."""


class FormatError(PrankError):
    """Malformed or truncated dataset file."""


class WindowError(PrankError):
    """Hankel window length outside the valid range."""


class ConvergenceError(PrankError):
    """The SVD or eigenvalue backend failed to converge."""


class NonFiniteError(PrankError, ValueError):
    """NaN or infinite entries reached a factorization."""


class EmptyError(PrankError):
    """Empty singular-value vector passed to rank selection."""
