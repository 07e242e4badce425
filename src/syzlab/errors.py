"""Exception types and the Monge-Ampere tolerance shared across the package.

Two failure modes are kept distinct so callers (and the CLI exit codes)
can tell bad input apart from a numerical breakdown; a geometric check
that honestly fails is reported, not raised.
"""

import math

# relative tolerance of the Monge-Ampere checks, kept here so that the CLI's check table
# reads it without loading numpy
MA_TOL = 1e-10


class ValidationError(ValueError):
    """Input violates a documented precondition."""


class NumericalError(ArithmeticError):
    """A computation produced non-finite values or an inconsistent fit."""


def require_finite(**values: float) -> None:
    """Raise ValidationError naming the first non-finite value."""
    for name, val in values.items():
        if not math.isfinite(val):
            raise ValidationError(f"{name} must be finite, got {val}")
