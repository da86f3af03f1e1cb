"""Exception types shared across the library, and the two argument checks.

The CLI maps these onto distinct exit codes, so keep the split between
data-validation failures and solver-capacity failures.  Every integer and
every [0, 1] argument of the package goes through :func:`integer` or
:func:`unit_interval`, so each is refused by one rule and one message.
"""
from __future__ import annotations

import numbers


class ValidationError(ValueError):
    """Input data violates a domain invariant (matrix, label, or parameter)."""


class DimensionMismatchError(ValidationError):
    """Operands live on different alphabets or spaces."""


class UnknownLabelError(ValidationError):
    """A symbol is not present in the relevant alphabet."""


class ReportMismatchError(ValidationError):
    """A compression report does not belong to the channel it is applied to."""


class ExactSolverCapError(RuntimeError):
    """Instance is larger than the exact-solver vertex cap.

    The exact solver is worst-case exponential; callers hitting this should
    fall back to the greedy solver or raise the cap explicitly.
    """


def integer(value: object, what: str, low: int | None = None) -> int:
    """``value`` as an int: a Python or numpy integer (``numbers.Integral``),
    never a bool or a float, and at least ``low`` when ``low`` is given.
    ``what`` names the argument in the :class:`ValidationError`."""
    # int first: an ABC check such as ``numbers.Integral`` takes about 0.5 us.
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    value = int(value)
    if low is not None and value < low:
        raise ValidationError(f"{what} must be >= {low}, got {value}")
    return value


def unit_interval(value: object, what: str, slack: float = 0.0) -> None:
    """Refuse ``value`` unless it is a real number in [0, 1], not a bool;
    NaN lies in no interval.  ``slack`` lets a value computed in floating
    point exceed 1 by that much.  ``what`` names the argument in the
    :class:`ValidationError`."""
    real = not isinstance(value, bool) and isinstance(value, (float, numbers.Real))  # float first
    if not (real and 0.0 <= value <= 1.0 + slack):
        raise ValidationError(f"{what} must lie in [0, 1], got {value!r}")
