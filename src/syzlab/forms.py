"""Small exterior-algebra helpers on a real 4-dimensional chart.

A real 2-form is stored as an antisymmetric 4x4 matrix M with
omega = sum_{a<b} M[a,b] e^a ^ e^b in a fixed coframe order.  Complex
1-forms are stored as complex 4-vectors of coframe coefficients.
"""

from __future__ import annotations

import numpy as np


def wedge_11(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Wedge of two (possibly complex) 1-forms, as a 4x4 coefficient matrix."""
    a = np.asarray(a)
    b = np.asarray(b)
    return np.outer(a, b) - np.outer(b, a)


def i_half_a_wedge_abar(a: np.ndarray) -> np.ndarray:
    """Real 2-form (i/2) a ^ conj(a) for a complex 1-form a.

    The (p,q) coefficient is -Im(a_p conj(a_q)), which is real and
    antisymmetric.
    """
    a = np.asarray(a, dtype=complex)
    return -np.imag(np.outer(a, np.conj(a)))


def pfaffian4(m: np.ndarray) -> np.ndarray:
    """Pfaffian of antisymmetric 4x4 matrices of shape (..., 4, 4).

    omega ^ omega = 2 * Pf(M) * e^0123 for omega = sum_{a<b} M_ab e^a e^b.
    """
    return (m[..., 0, 1] * m[..., 2, 3] - m[..., 0, 2] * m[..., 1, 3]
            + m[..., 0, 3] * m[..., 1, 2])


def top_coeff(m: np.ndarray) -> np.ndarray:
    """Coefficient of e^0^e^1^e^2^e^3 in omega^omega, over (..., 4, 4)."""
    return 2.0 * pfaffian4(m)


def top_coeff_pair(m1: np.ndarray, m2: np.ndarray) -> float:
    """Coefficient of the chart volume form in omega1 ^ omega2."""
    return float(
        m1[0, 1] * m2[2, 3] - m1[0, 2] * m2[1, 3] + m1[0, 3] * m2[1, 2]
        + m2[0, 1] * m1[2, 3] - m2[0, 2] * m1[1, 3] + m2[0, 3] * m1[1, 2]
    )


def pullback_2form(m: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """Pull back 2-form matrices of shape (..., 4, 4) under Jacobians jac.

    If phi has Jacobian J = d(target)/d(source), the pullback of omega is
    J^T M J in source coordinates.
    """
    jac = np.asarray(jac)
    return np.swapaxes(jac, -1, -2) @ np.asarray(m) @ jac
