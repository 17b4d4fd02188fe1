"""Semantic exception hierarchy.

Every error raised by this package derives from :class:`ChanpartError`, so
callers can catch one base class.  Validation failures additionally derive
from :class:`ValueError` and index failures from :class:`IndexError` to stay
compatible with generic exception handling.  A message that quotes a
caller's value writes at most :data:`ECHO_LIMIT` characters of its repr.
"""

#: Longest echo of a caller's value, or a problem file's value or key, in an error message.
ECHO_LIMIT = 200


def _repr_pieces(value):
    """``repr(value)`` piece by piece, a list, tuple or dict item by item, and an int
    too long for ``repr`` (``sys.get_int_max_str_digits``) by its size; no piece is empty.
    A container yields its bracket before it descends, so a reader that stops past
    :data:`ECHO_LIMIT` characters recurses at most ``ECHO_LIMIT + 1`` levels deep."""
    if type(value) in (list, tuple):
        yield "[" if type(value) is list else "("
        for i, item in enumerate(value):
            if i:
                yield ", "
            yield from _repr_pieces(item)
        yield "]" if type(value) is list else ",)" if len(value) == 1 else ")"
    elif type(value) is dict:
        yield "{"
        for i, (key, item) in enumerate(value.items()):
            yield f"{', ' if i else ''}{_echo_repr(key)}: "  # a key past the cut ends the echo
            yield from _repr_pieces(item)
        yield "}"
    elif isinstance(value, int):
        try:
            yield repr(value)
        except ValueError:
            yield f"an int of {value.bit_length()} bits"
    else:
        yield repr(value)


def _echo_repr(value) -> str:
    """``repr(value)``, written out only up to the cut at :data:`ECHO_LIMIT`
    characters; a value cut short does not say how many were cut."""
    text = ""
    for piece in _repr_pieces(value):
        text += piece
        if len(text) > ECHO_LIMIT:
            return f"{text[:ECHO_LIMIT]}... (more characters)"
    return text


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
