"""Exception types shared across the package, and its one integer rule."""

# str() and int() convert ints of at most this many decimal digits (the
# interpreter's default limit), so no file holds a longer one
MAX_INT_DIGITS = 4300
_INT_BOUND = 10 ** MAX_INT_DIGITS


class AscError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(AscError):
    """An argument or in-memory object violates a documented invariant."""


class FormatError(AscError):
    """A file (model container, matrix CSV, plan JSON, dataset) is malformed."""


def is_int(value) -> bool:
    """Whether `value` is a Python int (not a bool) of at most MAX_INT_DIGITS digits."""
    return type(value) is int and -_INT_BOUND < value < _INT_BOUND


def shown(value) -> str:
    """repr(value) for an error message, or a stand-in when it holds an int
    too long for repr()."""
    try:
        return repr(value)
    except ValueError:
        return f"<a value holding an int beyond {MAX_INT_DIGITS} digits>"


def require_int(name: str, value, minimum: int) -> int:
    """`value`, refused unless it is_int and >= `minimum`; nothing is cast."""
    if not is_int(value) or value < minimum:
        raise ValidationError(f"{name} must be an int >= {minimum}, got {shown(value)}")
    return value
