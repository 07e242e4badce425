"""Exception types shared across the package.

Two failure modes are kept distinct so callers (and the CLI exit codes)
can tell bad input apart from a numerical breakdown; a geometric check
that honestly fails is reported, not raised.
"""

import math


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class NumericalError(ArithmeticError):
    """A computation produced non-finite values or an inconsistent fit."""


def require_finite(**values: float) -> None:
    """Raise ValidationError naming the first non-finite value."""
    for name, val in values.items():
        if not math.isfinite(val):
            raise ValidationError(f"{name} must be finite, got {val}")
