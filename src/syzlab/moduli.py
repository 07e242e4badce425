"""Dimensions of the moduli near an I_k fiber: integer arithmetic, so that
`syzlab dims` runs without numpy."""

from .errors import ValidationError


def moduli_dims(k: int) -> tuple[int, int, int]:
    """(dim of semi-flat family, dim H^2_dR, dim of hyperkahler family)."""
    if not (1 <= k <= 9):
        raise ValidationError("k must lie in 1..9")
    return (10 - k, 11 - k, 10 - k)
