"""Numerical verification of semi-flat and hyperkahler model geometry
near an I_k fiber: metric identities, special Lagrangian fibers, gluing
mass integrals and mirror arithmetic."""

import importlib

from .errors import NumericalError, ValidationError

__version__ = "0.1.0"

__all__ = [
    "calabi", "fibration", "forms", "glue", "mirror", "moduli", "numerics",
    "semiflat", "slag",
    "NumericalError", "ValidationError", "__version__",
]


def __getattr__(name: str):
    """A submodule of __all__, imported the first time it is read (PEP 562), so
    that `import syzlab` loads no numpy."""
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
