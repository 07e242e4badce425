"""Numerical verification of semi-flat and hyperkahler model geometry
near an I_k fiber: metric identities, special Lagrangian fibers, gluing
mass integrals and mirror arithmetic."""

from . import calabi, fibration, forms, glue, mirror, numerics, semiflat, slag
from .errors import NumericalError, ValidationError

__version__ = "0.1.0"

__all__ = [
    "calabi", "fibration", "forms", "glue", "mirror", "numerics",
    "semiflat", "slag",
    "NumericalError", "ValidationError", "__version__",
]
