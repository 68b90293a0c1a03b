"""Exception types shared across the package."""

import math
import sys

import numpy as np


class UavContractError(Exception):
    """Base class for all package-specific errors."""


class SpeedViolation(UavContractError):
    """A mobility command asks for more displacement than one slot allows."""


class ZeroCapacity(UavContractError):
    """Channel capacity underflowed to zero; the UAV is unreachable."""


class InsufficientData(UavContractError):
    """A trailing-window statistic was requested on a log shorter than the window."""


class ParseError(UavContractError):
    """Config file is not syntactically valid; carries line/column when known."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(UavContractError, ValueError):
    """An input breaks an invariant; names the offending field."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.message = message

    def __reduce__(self):
        # rebuilt from its fields, so that it crosses a process boundary
        return type(self), (self.field, self.message)


def check_positive(obj, names, zero_ok: bool = False) -> None:
    """Raise ValidationError for the first of ``obj``'s fields ``names``
    that is not finite and positive (non-negative with ``zero_ok``)."""
    for name in names:
        value = getattr(obj, name)
        # every comparison with NaN is false
        above = value >= 0.0 if zero_ok else value > 0.0
        if not (above and value < math.inf):
            sign = "non-negative" if zero_ok else "positive"
            raise ValidationError(name, f"must be {sign} and finite, "
                                        f"got {value}")


def check_count(field: str, value: int, minimum: int) -> None:
    """Raise ValidationError unless ``value`` is an integer, not a bool, of
    at least ``minimum`` and, since counts enter the utilities as floats,
    at most the largest float."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(field, f"must be an integer, got {value!r}")
    if value < minimum:
        raise ValidationError(field, f"must be at least {minimum}, "
                                     f"got {value}")
    if value > sys.float_info.max:
        raise ValidationError(field, "is too large for a float")


class NonFiniteOutput(UavContractError):
    """A value bound for an artifact is NaN or infinite; names file and key."""

    def __init__(self, file, key, value):
        super().__init__(f"{file}: {key} is {value}, not finite")
        self.file = file
        self.key = key
        self.value = value

    def __reduce__(self):
        return type(self), (self.file, self.key, self.value)


class NotConverged(UavContractError):
    """A learning run ended without meeting the convergence criterion."""
