"""Semantic exception hierarchy.

Every error raised by this package derives from :class:`ChanpartError`, so
callers can catch one base class.  Validation failures additionally derive
from :class:`ValueError` and index failures from :class:`IndexError` to stay
compatible with generic exception handling.
"""


class ChanpartError(Exception):
    """Base class for all errors raised by this package."""


class NegativeEntryError(ChanpartError, ValueError):
    """A probability-like quantity is materially negative."""


class SumNotOneError(ChanpartError, ValueError):
    """A distribution does not sum to one within the accepted tolerance."""


class ZeroColumnError(ChanpartError, ValueError):
    """A data symbol has zero marginal probability (posterior undefined)."""


class DimensionMismatchError(ChanpartError, ValueError):
    """Array shapes are inconsistent with each other or with the problem."""


class NonPositiveEntryError(ChanpartError, ValueError):
    """A gradient input is materially negative where positivity is required."""


class OutOfRangeError(ChanpartError, ValueError):
    """A scalar argument lies outside its documented domain."""


class IndexOutOfRangeError(ChanpartError, IndexError):
    """A data-point or cell index is out of bounds."""


class InvalidMoveError(ChanpartError, ValueError):
    """A requested reassignment move is inconsistent with the quantizer."""


class InstanceTooLargeError(ChanpartError):
    """Exhaustive enumeration was refused because the instance is too big."""


class PreconditionViolatedError(ChanpartError):
    """A specialized solver was called outside its validity domain."""


class NotBinaryError(PreconditionViolatedError):
    """A binary-source-only solver was called with more than two sources."""
