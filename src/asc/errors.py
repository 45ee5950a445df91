"""Exception types shared across the package, and its one integer rule."""


class AscError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(AscError):
    """An argument or in-memory object violates a documented invariant."""


class ShapeError(ValidationError):
    """Tensor dimensions are inconsistent for the requested operation."""


class FormatError(AscError):
    """A file (model container, matrix CSV, plan JSON, dataset) is malformed."""


def require_int(name: str, value, minimum: int) -> int:
    """`value`, refused unless it is a Python int >= `minimum`; nothing is cast."""
    if type(value) is not int or value < minimum:
        raise ValidationError(f"{name} must be an int >= {minimum}, got {value!r}")
    return value
