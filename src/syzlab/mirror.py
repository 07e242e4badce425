"""Mirror-map arithmetic: fiber volumes and the duality product.

The mirror modulus satisfies Im tau_mirror = m * alpha_q with
alpha_q = Im tau / m; the check-side fiber volume is 1 / Im tau, so the
product of the dual fiber volumes is exactly 1.  The semi-flat class is
that of the rotated Calabi model (calabi.rotate).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import calabi as cal
from .errors import ValidationError


@dataclass(frozen=True)
class MirrorData:
    """Volumes and classification of a mirror pair (tau, m)."""

    k: int
    tau: complex
    m: int
    alpha_q: float
    v_check: float
    v_mirror: float
    product: float
    sf_class: str
    exact: bool
    alpha_q_exact: Fraction | None = None
    product_exact: Fraction | None = None


def mirror_map(k: int, tau: complex, m: int,
               tau_exact: tuple[Fraction, Fraction] | None = None) -> MirrorData:
    """Mirror fiber volumes for modulus tau, in the fundamental domain, and
    multiplicity m.

    tau_exact = (Re tau, Im tau) as fractions switches on exact rational
    arithmetic; the volume product is then exactly 1.
    """
    if m < 1:
        raise ValidationError("multiplicity m must be a positive integer")
    if not (1 <= k <= 9):
        raise ValidationError("k must lie in 1..9")
    tau = complex(tau)
    rot = cal.rotate(cal.CalabiModel(k=k, tau=tau, tau_exact=tau_exact))

    alpha_q_exact = product_exact = None
    if tau_exact is not None:
        im = Fraction(tau_exact[1])
        alpha_q_exact = im / m
        product_exact = (Fraction(1) / im) * (m * alpha_q_exact)

    alpha_q = tau.imag / m
    v_check = 1.0 / tau.imag
    v_mirror = m * alpha_q
    return MirrorData(k=k, tau=tau, m=m, alpha_q=alpha_q, v_check=v_check,
                      v_mirror=v_mirror, product=v_check * v_mirror,
                      sf_class=rot.sf_class, exact=rot.exact,
                      alpha_q_exact=alpha_q_exact, product_exact=product_exact)
