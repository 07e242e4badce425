"""Mirror-map arithmetic: fiber volumes and the duality product.

The mirror modulus satisfies Im tau_mirror = m * alpha_q with
alpha_q = Im tau / m; the check-side fiber volume is 1 / Im tau, so the
product of the dual fiber volumes is exactly 1.
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
               tau_exact: tuple[Fraction, Fraction] | None = None,
               ratio_irrational: bool = False) -> MirrorData:
    """Mirror fiber volumes for modulus tau and multiplicity m.

    tau_exact = (Re tau, Im tau) as fractions switches on exact rational
    arithmetic; the volume product is then exactly 1.
    """
    tau = complex(tau)
    if tau.imag <= 0:
        raise ValidationError("need Im tau > 0")
    if m < 1:
        raise ValidationError("multiplicity m must be a positive integer")
    if not (1 <= k <= 9):
        raise ValidationError("k must lie in 1..9")

    ratio_exact = None
    alpha_q_exact = None
    product_exact = None
    if tau_exact is not None:
        re, im = Fraction(tau_exact[0]), Fraction(tau_exact[1])
        if abs(float(re) - tau.real) > 1e-12 or abs(float(im) - tau.imag) > 1e-12:
            raise ValidationError("tau_exact disagrees with tau")
        ratio_exact = -re / (re * re + im * im)
        alpha_q_exact = im / m
        product_exact = (Fraction(1) / im) * (m * alpha_q_exact)

    cls, exact, _ = cal.classify_ratio(-tau.real / abs(tau) ** 2, ratio_exact,
                                       ratio_irrational)
    alpha_q = tau.imag / m
    v_check = 1.0 / tau.imag
    v_mirror = m * alpha_q
    return MirrorData(k=k, tau=tau, m=m, alpha_q=alpha_q, v_check=v_check,
                      v_mirror=v_mirror, product=v_check * v_mirror,
                      sf_class=cls, exact=exact,
                      alpha_q_exact=alpha_q_exact, product_exact=product_exact)
