"""Hyperkahler triple on the Calabi model space and its rotation to a
semi-flat metric.

A point is the tuple (ell, psi, xi1, xi2): xi on the elliptic curve
C/(Z + tau Z), psi the S^1 angle of the line bundle fiber, ell the
moment-map-like radial variable.  The connection form is

    theta = d psi + (c^2/2) (xi2 d xi1 - xi1 d xi2),   c^2 = 2 pi k / Im tau,

so d theta = -c^2 d xi1 ^ d xi2.  The triple is

    omega_J = theta ^ d ell + ell c^2 d xi1 ^ d xi2,
    omega_I = c (theta ^ d xi2 + ell d ell ^ d xi1),
    omega_K = c (d xi1 ^ theta + ell d ell ^ d xi2),

each of the form E^T A E: A holds its coefficients in the coframe
(d ell, theta, d xi1, d xi2), and E is the identity with row 1 replaced by
theta = (0, 1, c^2 xi2/2, -c^2 xi1/2) in the coordinate coframe.  Rotation
by a_tau omega_I + b_tau omega_K (a = Im tau/|tau|, b = -Re tau/|tau|) is
the same product with a_tau A_I + b_tau A_K, and lands on a semi-flat
model with

    eps = 2 pi |tau| c,  alpha = sqrt(k pi Im tau)/|tau|,
    b0 = -k Re tau / (2 |tau|^2).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np

from . import semiflat as sfm
from .errors import NumericalError, ValidationError
from .forms import wedge_11

TWO_PI = 2.0 * math.pi

STANDARD = "standard"
QUASI_REGULAR = "quasi_regular"
IRREGULAR = "irregular"


@dataclass(frozen=True)
class CalabiModel:
    """Calabi model data: degree k and modulus tau in the fundamental domain.

    tau_exact optionally carries (Re tau, Im tau) as Fractions, which makes
    the rationality decision of rotate exact.  a_tau, b_tau, c_tau and chart
    are computed by their first use and stored on the instance; like
    _rotation they are not fields, so ==, hash and repr do not see them.
    """

    k: int
    tau: complex
    tau_exact: tuple[Fraction, Fraction] | None = None
    # the RotationResult of rotate(self), stored by its first successful call
    _rotation: RotationResult | None = field(default=None, init=False, repr=False,
                                             compare=False)

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("k must be a positive integer")
        t = complex(self.tau)
        if not cmath.isfinite(t):
            raise ValidationError("tau must be finite")
        if t.imag <= 0:
            raise ValidationError("need Im tau > 0")
        if abs(t) < 1.0 - 1e-12 or abs(t.real) > 0.5 + 1e-12:
            raise ValidationError("tau must lie in the fundamental domain")
        if self.tau_exact and abs(complex(*map(float, self.tau_exact)) - t) > 1e-12:
            raise ValidationError("tau_exact disagrees with tau")

    @cached_property
    def a_tau(self) -> float:
        return self.tau.imag / abs(self.tau)

    @cached_property
    def b_tau(self) -> float:
        return -self.tau.real / abs(self.tau)

    @cached_property
    def c_tau(self) -> float:
        return math.sqrt(TWO_PI * self.k / self.tau.imag)

    @cached_property
    def chart(self) -> tuple:
        """sf_coordinates' (a, b, c, c1, r, s, 2 pi a, c^2, c^2/2): a_tau, b_tau, c_tau,
        c1 = 2 pi |tau|/(Im tau c) = 1/s and r = Re tau/Im tau."""
        a, b, c, t = self.a_tau, self.b_tau, self.c_tau, self.tau
        c1 = TWO_PI * abs(t) / (t.imag * c)
        return a, b, c, c1, t.real / t.imag, 1.0 / c1, TWO_PI * a, c * c, 0.5 * c ** 2


def _coframe(m: CalabiModel, pt) -> np.ndarray:
    """E: rows (d ell, theta, d xi1, d xi2) in the coordinate coframe
    (d ell, d psi, d xi1, d xi2), so coefficients A in the first are E^T A E."""
    h = 0.5 * m.c_tau ** 2
    return np.array([[1.0, 0.0, 0.0, 0.0],
                     [0.0, 1.0, h * pt[3], -h * pt[2]],
                     [0.0, 0.0, 1.0, 0.0],
                     [0.0, 0.0, 0.0, 1.0]])


def hk_triple(m: CalabiModel, pt) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(omega_I, omega_J, omega_K) in the coordinate coframe, each E^T A E.

    The potential V = ell multiplies omega_J's base area term (closedness
    forces it)."""
    c = m.c_tau
    cl = c * pt[0]
    lc2 = cl * c
    a = np.array([[[0.0, 0.0, cl, 0.0], [0.0, 0.0, 0.0, c],
                   [-cl, 0.0, 0.0, 0.0], [0.0, -c, 0.0, 0.0]],
                  [[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                   [0.0, 0.0, 0.0, lc2], [0.0, 0.0, -lc2, 0.0]],
                  [[0.0, 0.0, 0.0, cl], [0.0, 0.0, -c, 0.0],
                   [0.0, c, 0.0, 0.0], [-cl, 0.0, 0.0, 0.0]]])
    e = _coframe(m, pt)
    return tuple(e.T @ a @ e)


def holomorphic_form_j(m: CalabiModel, pt) -> np.ndarray:
    """Omega_J = i (taubar/|tau|) c (dphi/2 - ell dl + i dpsi) ^ (dxi1 + i dxi2)."""
    h = m.chart[-1]
    u = np.array([-pt[0], 1.0j, h * pt[2], h * pt[3]], dtype=complex)
    v = np.array([0.0, 0.0, 1.0, 1.0j], dtype=complex)
    phase = 1j * np.conj(complex(m.tau)) / abs(m.tau)
    return phase * m.c_tau * wedge_11(u, v)


def gibbons_hawking_metric(m: CalabiModel, pt) -> np.ndarray:
    """Riemannian metric g = -omega_J omega_I^-1 omega_K of the triple, in
    the coordinate frame; gibbons_hawking_closed_form writes it out as
    ell (dl^2 + c^2 |dxi|^2) + theta^2/ell."""
    om_i, om_j, om_k = hk_triple(m, pt)
    g = -om_j @ np.linalg.solve(om_i, om_k)
    return 0.5 * (g + g.T)


def gibbons_hawking_closed_form(m: CalabiModel, pt) -> np.ndarray:
    ell = pt[0]
    th = _coframe(m, pt)[1]
    c2 = m.c_tau ** 2
    g = np.diag([ell, 0.0, ell * c2, ell * c2])
    return g + np.outer(th, th) / ell


def closedness_defect(m: CalabiModel, pt) -> float:
    """Largest coefficient of d omega over the triple; NaN propagates.

    Every entry of E^T A E is affine in each coordinate (A is affine in
    ell, E in xi, and A has no theta-theta entry), so a unit forward
    difference along a coordinate is that partial derivative exactly.
    """
    q = np.asarray(pt, dtype=float)
    base = np.stack(hk_triple(m, q))
    # d[f, a, b, c]: the partial along coordinate a of entry (b, c) of form f
    d = np.stack([np.stack(hk_triple(m, q + e)) - base
                  for e in np.eye(4)], axis=1)
    # (d omega)_abc = d_a M_bc - d_b M_ac + d_c M_ab
    return float(np.max(np.abs(d - d.transpose(0, 2, 1, 3) + d.transpose(0, 2, 3, 1))))


# ---------------------------------------------------------------------------
# rationality classification of the rotated model


def classify_ratio(ratio_float: float,
                   ratio_exact: Fraction | None) -> tuple[str, bool, Fraction | None]:
    """Classify 2*b0/k = -Re tau/|tau|^2: (class, decided exactly, ratio)."""
    if ratio_exact is not None:
        if ratio_exact == 0:
            return STANDARD, True, ratio_exact
        return QUASI_REGULAR, True, ratio_exact
    if ratio_float == 0.0:
        return STANDARD, False, Fraction(0)
    guess = Fraction(ratio_float).limit_denominator(10 ** 6)
    if abs(float(guess) - ratio_float) <= 1e-9 * max(1.0, abs(ratio_float)):
        cls = STANDARD if guess == 0 else QUASI_REGULAR
        return cls, False, guess
    return IRREGULAR, False, None


@dataclass(frozen=True)
class RotationResult:
    """Semi-flat data of the rotated Calabi model.

    alpha and eps are the scale and fiber-area parameters in the convention
    omega_tau = alpha * omega_sf(b0, eps/alpha); params holds the equivalent
    ModelParams for sf_form_chart, whose eps field therefore stores eps/alpha.
    """

    alpha: float
    eps: float
    b0: float
    sf_class: str
    exact: bool
    winding: tuple[int, int] | None
    params: sfm.ModelParams


def rotate(m: CalabiModel) -> RotationResult:
    """The semi-flat data of m, computed by the first call for this model
    instance and stored on it; a call that raises stores nothing.
    NumericalError where k pi Im tau or eps/alpha overflows."""
    if m._rotation is not None:
        return m._rotation
    t = complex(m.tau)
    alpha = math.sqrt(m.k * math.pi * t.imag) / abs(t)
    if not math.isfinite(alpha):
        raise NumericalError(f"alpha = sqrt(k pi Im tau)/|tau| is {alpha}: k pi Im tau overflows")
    eps = TWO_PI * abs(t) * m.c_tau
    # -Re tau/|tau|^2 as b_tau/|tau|: the square of |tau| overflows past 1.3e154
    ratio_float = m.b_tau / abs(t)
    b0 = m.k * ratio_float / 2.0

    ratio_exact = None
    if m.tau_exact is not None:
        re, im = (Fraction(v) for v in m.tau_exact)
        ratio_exact = -re / (re * re + im * im)
    cls, exact, ratio = classify_ratio(ratio_float, ratio_exact)
    winding = None
    if ratio is not None:
        winding = (ratio.denominator, -ratio.numerator)
        b0 = float(Fraction(m.k) * ratio / 2)
    if not math.isfinite(eps / alpha):
        raise NumericalError(f"eps/alpha = {eps / alpha}: 2 pi sqrt(2) |tau|^2/Im tau overflows")
    params = sfm.ModelParams(k=m.k, eps=eps / alpha, b0=b0, alpha=alpha)
    rot = RotationResult(alpha=alpha, eps=eps, b0=b0, sf_class=cls,
                         exact=exact, winding=winding, params=params)
    object.__setattr__(m, "_rotation", rot)
    return rot


# ---------------------------------------------------------------------------
# coordinate change to the semi-flat chart


def sf_coordinates(m: CalabiModel, pt) -> tuple[list, tuple]:
    """Semi-flat chart point (ell_sf, theta_sf, x1, x2) and the inverse of
    its Jacobian, on Python floats.

    x = x1 + i x2 is the fiber coordinate normalized so the lattice is
    Lambda(z); x1 comes from the exact antiderivative of J dx2, pinned to
    vanish along the parallel holomorphic section psi = -b ell^2 / (2a),
    xi2 = 0.  The Jacobian is block-triangular (ell_sf depends on ell
    alone, x2 on ell and xi2, theta_sf on xi, x1 adds psi), so its inverse
    is solved row by row: rows (d ell, d psi, d xi1, d xi2), columns the
    chart coordinates.
    """
    a, b, c, c1, r, s, two_pi_a, c2, _ = m.chart
    ell, psi, xi1, xi2 = pt
    # (c2 xi2) xi2 stays finite where xi2 ** 2 overflows: transport by tau
    # moves xi2 by Im tau
    q_sf = [c1 * ell,
            TWO_PI * xi1 - TWO_PI * r * xi2,
            (a * psi + 0.5 * b * ell ** 2 - 0.5 * a * c2 * xi1 * xi2
             - 0.5 * b * c2 * xi2 * xi2) / two_pi_a,
            c * ell * xi2 / two_pi_a]
    y0 = -xi2 * s / ell
    y3 = two_pi_a / (c * ell)
    w = 0.5 * c2 * (xi1 + r * xi2) + c2 * b * xi2 / a
    jinv = ((s, 0.0, 0.0, 0.0),
            (w * y0 - b * ell * s / a, 0.5 * c2 * xi2 / TWO_PI, TWO_PI, w * y3),
            (r * y0, 1.0 / TWO_PI, 0.0, r * y3),
            (y0, 0.0, 0.0, y3))
    return q_sf, jinv


def _tau_coefficients(m: CalabiModel, ell: float) -> tuple[float, float, float, float]:
    """Entries (A02, A03, A12, A13) of a_tau A_I + b_tau A_K with the A of
    hk_triple: the coefficients of omega_tau = a_tau omega_I + b_tau omega_K
    in the coframe (d ell, theta, d xi1, d xi2); A01 = A23 = 0."""
    c = m.c_tau
    ac, bc = m.a_tau * c, m.b_tau * c
    return ac * ell, bc * ell, -bc, ac


def _pushed_omega_tau(m: CalabiModel, pt) -> tuple[list, tuple]:
    """Chart point q_sf and the upper entries (01, 02, 03, 12, 13, 23) of
    omega_tau pushed to the semi-flat chart, on Python floats.

    The push-forward is M^T A M with M = E J^-1, the coframe (d ell,
    theta, d xi1, d xi2) over the chart coordinates.  As A01 = A23 = 0,
    omega_tau is d ell ^ P + theta ^ Q with P = A02 d xi1 + A03 d xi2 and
    Q = A12 d xi1 + A13 d xi2, so entry ij is
    dl_i P_j - P_i dl_j + th_i Q_j - Q_i th_j.  J^-1 has dl = (s, 0, 0, 0), d xi1 =
    (x0, x1, 0, x3) and d xi2 = (y0, 0, 0, y3), so P_2 = Q_2 = 0, th_2 = 2 pi, and
    each entry keeps the products that are not zero by structure, in the dense order.
    P_3 = A02 x3 + A03 y3 = c ell y3 (a r + b), as x3 = r y3, is zero too: a r =
    Re tau/|tau| = -b, so entry 03 leaves out its float sum, which is rounding alone.
    """
    q_sf, ((s, _, _, _), (p0, p1, _, p3), (x0, x1, _, x3), (y0, _, _, y3)) = sf_coordinates(m, pt)
    h = m.chart[-1]
    u, v = h * pt[3], h * pt[2]
    a02, _, a12, a13 = _tau_coefficients(m, pt[0])
    th0, th1, th3 = p0 + u * x0 - v * y0, p1 + u * x1, p3 + u * x3 - v * y3
    qq0, qq1, qq3 = a12 * x0 + a13 * y0, a12 * x1, a12 * x3 + a13 * y3
    return q_sf, (s * (a02 * x1) + th0 * qq1 - qq0 * th1, -(qq0 * TWO_PI),
                  th0 * qq3 - qq0 * th3, -(qq1 * TWO_PI),
                  th1 * qq3 - qq1 * th3, TWO_PI * qq3)


def verify_rotation(m: CalabiModel, pt) -> float:
    """Relative defect between omega_tau pushed to the semi-flat chart and
    the rotated semi-flat form; NaN propagates."""
    q_sf, (p01, p02, p03, p12, p13, p23) = _pushed_omega_tau(m, pt)
    # sf_form_chart(params, q_sf) has upper entries e01, cg_i, -cg_r, cg_r, cg_i, c
    e01, cg_i, cg_r, c = sfm.sf_form_point(rotate(m).params, *q_sf)
    d01, d02, d03 = abs(p01 - e01), abs(p02 - cg_i), abs(p03 + cg_r)
    d12, d13, d23 = abs(p12 - cg_r), abs(p13 - cg_i), abs(p23 - c)
    scale = max(abs(e01), abs(cg_i), abs(cg_r), abs(c), 1e-300)
    # the builtin max drops NaN; a NaN difference makes the sum NaN
    total = d01 + d02 + d03 + d12 + d13 + d23
    return (max(d01, d02, d03, d12, d13, d23) if total == total else total) / scale


# ---------------------------------------------------------------------------
# lattice transport checks


def transport(m: CalabiModel, pt, gamma: complex) -> tuple:
    """Deck transport of a point by a lattice element gamma of Z + tau Z.

    The line-bundle cocycle multiplies the fiber coordinate by
    exp((k pi / Im tau)(conj(gamma) xi + |gamma|^2 / 2)); ell is invariant
    and psi shifts by the argument of the cocycle.
    """
    ell, psi, xi1, xi2 = pt
    dpsi = (m.k * math.pi / m.tau.imag) * (np.conj(gamma) * complex(xi1, xi2)).imag
    return ell, psi + dpsi, xi1 + complex(gamma).real, xi2 + complex(gamma).imag


def lattice_defects(m: CalabiModel, pt) -> dict[str, float]:
    """Residuals of the quotient relations in the semi-flat coordinates.

    psi + 2*pi shifts x by exactly 1; transport by tau shifts x by
    (k/Im tau)(i y1 - y2) with y = |tau| ell / c + i (Im tau xi1 - Re tau xi2);
    transport by 1 fixes x and shifts theta_sf by 2*pi.  Each coordinate's
    residual is relative to max(1, |coordinate|), so that rounding of
    coordinates that grow with k is not a defect.
    """
    t = complex(m.tau)
    ell, psi, xi1, xi2 = pt
    q0 = sf_coordinates(m, pt)[0]
    y1 = abs(t) * ell / m.c_tau
    y2 = t.imag * xi1 - t.real * xi2
    expected = (m.k / t.imag) * complex(-y2, y1)
    # (moved point, expected shift of (ell_sf, theta_sf, x1, x2))
    moves = {"psi_period": ((ell, psi + TWO_PI, xi1, xi2), (0.0, 0.0, 1.0, 0.0)),
             "gamma_one": (transport(m, pt, 1.0), (0.0, TWO_PI, 0.0, 0.0)),
             "gamma_tau": (transport(m, pt, t), (0.0, 0.0, expected.real, expected.imag))}
    defects = {}
    for name, (moved, shift) in moves.items():
        q = sf_coordinates(m, moved)[0]
        # x1, x2 first: the order of the sum that earlier reports used
        defects[name] = sum(abs(q[i] - q0[i] - shift[i]) / max(1.0, abs(q[i]), abs(q0[i]))
                            for i in (2, 3, 0, 1))
    return defects


# ---------------------------------------------------------------------------
# special Lagrangian fibers of the rotated structure


def mck_restriction(m: CalabiModel, c_level: float, big_k: float) -> tuple[float, float]:
    """(sup |omega_J|, sup |Im Omega_J|) restricted to the SYZ fiber
    M_{c,K} = {Im tau xi1 - Re tau xi2 = c, ell = K}, spanned by d/dpsi and
    tau in xi, over a 5 x 5 grid of the fiber; NaN propagates."""
    t = complex(m.tau)
    t1 = np.array([0.0, 1.0, 0.0, 0.0])
    t2 = np.array([0.0, 0.0, t.real, t.imag])
    om, im = [], []
    for s in np.linspace(-0.5, 0.5, 5):
        for psi in np.linspace(0.0, TWO_PI, 5, endpoint=False):
            pt = (big_k, psi, c_level / t.imag + s * t.real, s * t.imag)
            om.append(t1 @ hk_triple(m, pt)[1] @ t2)
            im.append((t1 @ holomorphic_form_j(m, pt) @ t2).imag)
    return float(np.max(np.abs(om))), float(np.max(np.abs(im)))
