"""Hyperkahler triple on the Calabi model space and its rotation to a
semi-flat metric.

Coordinates are (ell, psi, xi1, xi2): xi on the elliptic curve C/(Z + tau Z),
psi the S^1 angle of the line bundle fiber, ell the moment-map-like radial
variable.  The connection form is

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

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import semiflat as sfm
from .errors import ValidationError
from .forms import restrict, wedge_11

TWO_PI = 2.0 * math.pi

STANDARD = "standard"
QUASI_REGULAR = "quasi_regular"
IRREGULAR = "irregular"


@dataclass(frozen=True)
class CalabiModel:
    """Calabi model data: degree k and modulus tau in the fundamental domain.

    tau_exact optionally carries (Re tau, Im tau) as Fractions, which makes
    the rationality decision of rotate exact.
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
        if t.imag <= 0:
            raise ValidationError("need Im tau > 0")
        if abs(t) < 1.0 - 1e-12 or abs(t.real) > 0.5 + 1e-12:
            raise ValidationError("tau must lie in the fundamental domain")
        if self.tau_exact and abs(complex(*map(float, self.tau_exact)) - t) > 1e-12:
            raise ValidationError("tau_exact disagrees with tau")

    @property
    def a_tau(self) -> float:
        return self.tau.imag / abs(self.tau)

    @property
    def b_tau(self) -> float:
        return -self.tau.real / abs(self.tau)

    @property
    def c_tau(self) -> float:
        return math.sqrt(TWO_PI * self.k / self.tau.imag)


@dataclass(frozen=True)
class CalabiPoint:
    ell: float
    psi: float = 0.0
    xi1: float = 0.0
    xi2: float = 0.0

    def __post_init__(self):
        inf = math.inf
        if not (-inf < self.psi < inf and -inf < self.xi1 < inf
                and -inf < self.xi2 < inf and -inf < self.ell < inf):
            raise ValidationError("point coordinates must be finite")
        if self.ell <= 0:
            raise ValidationError("ell must be positive")

    def coords(self) -> np.ndarray:
        return np.array([self.ell, self.psi, self.xi1, self.xi2])


def _coframe(m: CalabiModel, pt: CalabiPoint) -> np.ndarray:
    """E: rows (d ell, theta, d xi1, d xi2) in the coordinate coframe
    (d ell, d psi, d xi1, d xi2), so coefficients A in the first are E^T A E."""
    h = 0.5 * m.c_tau ** 2
    return np.array([[1.0, 0.0, 0.0, 0.0],
                     [0.0, 1.0, h * pt.xi2, -h * pt.xi1],
                     [0.0, 0.0, 1.0, 0.0],
                     [0.0, 0.0, 0.0, 1.0]])


def hk_triple(m: CalabiModel, pt: CalabiPoint) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(omega_I, omega_J, omega_K) in the coordinate coframe, each E^T A E.

    The potential V = ell multiplies omega_J's base area term (closedness
    forces it)."""
    c = m.c_tau
    cl = c * pt.ell
    lc2 = cl * c
    a = np.array([[[0.0, 0.0, cl, 0.0], [0.0, 0.0, 0.0, c],
                   [-cl, 0.0, 0.0, 0.0], [0.0, -c, 0.0, 0.0]],
                  [[0.0, -1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                   [0.0, 0.0, 0.0, lc2], [0.0, 0.0, -lc2, 0.0]],
                  [[0.0, 0.0, 0.0, cl], [0.0, 0.0, -c, 0.0],
                   [0.0, c, 0.0, 0.0], [-cl, 0.0, 0.0, 0.0]]])
    e = _coframe(m, pt)
    return tuple(e.T @ a @ e)


def holomorphic_form_j(m: CalabiModel, pt: CalabiPoint) -> np.ndarray:
    """Omega_J = i (taubar/|tau|) c (dphi/2 - ell dl + i dpsi) ^ (dxi1 + i dxi2)."""
    q = pt.coords()
    c2 = m.c_tau ** 2
    u = np.array([-q[0], 1.0j, 0.5 * c2 * q[2], 0.5 * c2 * q[3]], dtype=complex)
    v = np.array([0.0, 0.0, 1.0, 1.0j], dtype=complex)
    phase = 1j * np.conj(complex(m.tau)) / abs(m.tau)
    return phase * m.c_tau * wedge_11(u, v)


def gibbons_hawking_metric(m: CalabiModel, pt: CalabiPoint) -> np.ndarray:
    """Riemannian metric g = omega_J(., J .) in coordinate frame.

    The complex structure J satisfies J dl = theta/ell, J dxi1 = -dxi2.
    The result matches ell (dl^2 + c^2 |dxi|^2) + theta^2/ell.
    """
    ell = pt.ell
    dl, th, dx1, dx2 = _coframe(m, pt)
    # J* on the coordinate coframe
    jstar = np.zeros((4, 4))
    jstar[0] = th / ell
    # dpsi = theta - (c^2/2)(xi2 dxi1 - xi1 dxi2); J*theta = -ell*dl
    c2 = m.c_tau ** 2
    jstar[1] = -ell * dl - 0.5 * c2 * (pt.xi2 * (-dx2) - pt.xi1 * dx1)
    jstar[2] = -dx2
    jstar[3] = dx1
    _, om_j, _ = hk_triple(m, pt)
    # J on vectors: (J e_b)^a = (J* e^a)_b
    g = om_j @ jstar
    return 0.5 * (g + g.T)


def gibbons_hawking_closed_form(m: CalabiModel, pt: CalabiPoint) -> np.ndarray:
    ell = pt.ell
    th = _coframe(m, pt)[1]
    c2 = m.c_tau ** 2
    g = np.diag([ell, 0.0, ell * c2, ell * c2])
    return g + np.outer(th, th) / ell


def closedness_defect(m: CalabiModel, pt: CalabiPoint, h: float = 1e-4) -> float:
    """Max finite-difference exterior-derivative coefficient over the triple."""
    q = pt.coords()

    def forms_at(qq):
        p = CalabiPoint(ell=qq[0], psi=qq[1], xi1=qq[2], xi2=qq[3])
        return np.stack(hk_triple(m, p))

    partial = np.empty((4, 3, 4, 4))
    for a in range(4):
        e = np.zeros(4)
        e[a] = h
        partial[a] = (forms_at(q + e) - forms_at(q - e)) / (2.0 * h)
    worst = 0.0
    for a in range(4):
        for b in range(a + 1, 4):
            for c in range(b + 1, 4):
                coeff = partial[a, :, b, c] - partial[b, :, a, c] + partial[c, :, a, b]
                worst = max(worst, float(np.max(np.abs(coeff))))
    return worst


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
    instance and stored on it; a call that raises stores nothing."""
    if m._rotation is not None:
        return m._rotation
    t = complex(m.tau)
    alpha = math.sqrt(m.k * math.pi * t.imag) / abs(t)
    eps = TWO_PI * abs(t) * m.c_tau
    b0 = -m.k * t.real / (2.0 * abs(t) ** 2)

    ratio_exact = None
    if m.tau_exact is not None:
        re, im = (Fraction(v) for v in m.tau_exact)
        ratio_exact = -re / (re * re + im * im)
    cls, exact, ratio = classify_ratio(-t.real / abs(t) ** 2, ratio_exact)
    winding = None
    if ratio is not None:
        winding = (ratio.denominator, -ratio.numerator)
        b0 = float(Fraction(m.k) * ratio / 2)
    params = sfm.ModelParams(k=m.k, eps=eps / alpha, b0=b0, alpha=alpha)
    rot = RotationResult(alpha=alpha, eps=eps, b0=b0, sf_class=cls,
                         exact=exact, winding=winding, params=params)
    object.__setattr__(m, "_rotation", rot)
    return rot


# ---------------------------------------------------------------------------
# coordinate change to the semi-flat chart


def sf_coordinates(m: CalabiModel, pt: CalabiPoint) -> tuple[list, tuple]:
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
    t = complex(m.tau)
    a, b, c = m.a_tau, m.b_tau, m.c_tau
    c2 = c * c
    ell, psi, xi1, xi2 = pt.ell, pt.psi, pt.xi1, pt.xi2

    c1 = TWO_PI * abs(t) / (t.imag * c)
    r = t.real / t.imag
    q_sf = [c1 * ell,
            TWO_PI * xi1 - TWO_PI * r * xi2,
            (a * psi + 0.5 * b * ell ** 2 - 0.5 * a * c2 * xi1 * xi2
             - 0.5 * b * c2 * xi2 ** 2) / (TWO_PI * a),
            c * ell * xi2 / (TWO_PI * a)]

    s = 1.0 / c1
    y0 = -xi2 * s / ell
    y3 = TWO_PI * a / (c * ell)
    w = 0.5 * c2 * (xi1 + r * xi2) + c2 * b * xi2 / a
    jinv = ((s, 0.0, 0.0, 0.0),
            (w * y0 - b * ell * s / a, 0.5 * c2 * xi2 / TWO_PI, TWO_PI, w * y3),
            (r * y0, 1.0 / TWO_PI, 0.0, r * y3),
            (y0, 0.0, 0.0, y3))
    return q_sf, jinv


def _tau_coefficients(m: CalabiModel, ell: float) -> tuple[float, float, float, float]:
    """Entries (A02, A03, A12, A13) of a_tau A_I + b_tau A_K, the
    coefficients of omega_tau in the coframe (d ell, theta, d xi1, d xi2);
    A01 = A23 = 0."""
    c = m.c_tau
    ac, bc = m.a_tau * c, m.b_tau * c
    return ac * ell, bc * ell, -bc, ac


def omega_tau(m: CalabiModel, pt: CalabiPoint) -> np.ndarray:
    """a_tau omega_I + b_tau omega_K, as E^T (a_tau A_I + b_tau A_K) E
    with the coefficients of hk_triple."""
    a02, a03, a12, a13 = _tau_coefficients(m, pt.ell)
    a = np.array([[0.0, 0.0, a02, a03], [0.0, 0.0, a12, a13],
                  [-a02, -a12, 0.0, 0.0], [-a03, -a13, 0.0, 0.0]])
    e = _coframe(m, pt)
    return e.T @ a @ e


_UPPER = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _pushed_omega_tau(m: CalabiModel, pt: CalabiPoint) -> tuple[list, list]:
    """Chart point q_sf and the upper entries (01, 02, 03, 12, 13, 23) of
    omega_tau pushed to the semi-flat chart, on Python floats.

    The push-forward is M^T A M with M = E J^-1, the coframe (d ell,
    theta, d xi1, d xi2) over the chart coordinates.  As A01 = A23 = 0,
    omega_tau is d ell ^ P + theta ^ Q with P = A02 d xi1 + A03 d xi2 and
    Q = A12 d xi1 + A13 d xi2, so entry ij is
    dl_i P_j - P_i dl_j + th_i Q_j - Q_i th_j.
    """
    q_sf, (dl, dpsi, dx1, dx2) = sf_coordinates(m, pt)
    h = 0.5 * m.c_tau ** 2
    u, v = h * pt.xi2, h * pt.xi1
    th = [p + u * x - v * y for p, x, y in zip(dpsi, dx1, dx2)]
    a02, a03, a12, a13 = _tau_coefficients(m, pt.ell)
    pp = [a02 * x + a03 * y for x, y in zip(dx1, dx2)]
    qq = [a12 * x + a13 * y for x, y in zip(dx1, dx2)]
    return q_sf, [dl[i] * pp[j] - pp[i] * dl[j] + th[i] * qq[j] - qq[i] * th[j]
                  for i, j in _UPPER]


def verify_rotation(m: CalabiModel, pt: CalabiPoint) -> float:
    """Relative defect between omega_tau pushed to the semi-flat chart and
    the rotated semi-flat form; NaN propagates."""
    rot = rotate(m)
    q_sf, pushed = _pushed_omega_tau(m, pt)
    target = sfm.sf_form_chart(rot.params, q_sf).tolist()
    want = [target[i][j] for i, j in _UPPER]
    diffs = [abs(p - w) for p, w in zip(pushed, want)]
    scale = max(max(abs(w) for w in want), 1e-300)
    # the builtin max drops NaN; a NaN difference makes the sum NaN
    total = sum(diffs)
    return (max(diffs) if total == total else total) / scale


# ---------------------------------------------------------------------------
# lattice transport checks


def transport(m: CalabiModel, pt: CalabiPoint, gamma: complex) -> CalabiPoint:
    """Deck transport of a point by a lattice element gamma of Z + tau Z.

    The line-bundle cocycle multiplies the fiber coordinate by
    exp((k pi / Im tau)(conj(gamma) xi + |gamma|^2 / 2)); ell is invariant
    and psi shifts by the argument of the cocycle.
    """
    t = complex(m.tau)
    xi = complex(pt.xi1, pt.xi2)
    dpsi = (m.k * math.pi / t.imag) * (np.conj(gamma) * xi).imag
    return CalabiPoint(ell=pt.ell, psi=pt.psi + dpsi,
                       xi1=pt.xi1 + complex(gamma).real,
                       xi2=pt.xi2 + complex(gamma).imag)


def lattice_defects(m: CalabiModel, pt: CalabiPoint) -> dict[str, float]:
    """Residuals of the quotient relations in the semi-flat coordinates.

    psi + 2*pi shifts x by exactly 1; transport by tau shifts x by
    (k/Im tau)(i y1 - y2) with y = |tau| ell / c + i (Im tau xi1 - Re tau xi2);
    transport by 1 fixes x and shifts theta_sf by 2*pi.  Each coordinate's
    residual is relative to max(1, |coordinate|), so that rounding of
    coordinates that grow with k is not a defect.
    """
    t = complex(m.tau)
    q0 = sf_coordinates(m, pt)[0]
    y1 = abs(t) * pt.ell / m.c_tau
    y2 = t.imag * pt.xi1 - t.real * pt.xi2
    expected = (m.k / t.imag) * complex(-y2, y1)
    # (moved point, expected shift of (ell_sf, theta_sf, x1, x2))
    moves = {"psi_period": (CalabiPoint(pt.ell, pt.psi + TWO_PI, pt.xi1, pt.xi2),
                            (0.0, 0.0, 1.0, 0.0)),
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


def mck_restriction(m: CalabiModel, c_level: float, big_k: float,
                    n: int = 5, wrong_slice: bool = False) -> tuple[float, float]:
    """(sup |omega_J| restricted, sup |Im Omega_J| restricted) on a fiber.

    The SYZ fibers are M_{c,K} = {Im tau xi1 - Re tau xi2 = c, ell = K};
    wrong_slice instead restricts to {xi2 = c, |w| = const}, which is not
    omega_J-Lagrangian.
    """
    t = complex(m.tau)
    sup_om = 0.0
    sup_im = 0.0
    for s in np.linspace(-0.5, 0.5, n):
        for psi in np.linspace(0.0, TWO_PI, n, endpoint=False):
            if wrong_slice:
                pt = CalabiPoint(big_k, psi, 0.37 + s, c_level)
                q = pt.coords()
                t1v = np.array([0.0, 1.0, 0.0, 0.0])
                # |w| constant: d ell = (c^2 xi1 / (2 ell)) d xi1 along xi1
                t2v = np.array([m.c_tau ** 2 * q[2] / (2.0 * q[0]), 0.0, 1.0, 0.0])
            else:
                xi1 = c_level / t.imag + s * t.real
                xi2 = s * t.imag
                pt = CalabiPoint(big_k, psi, xi1, xi2)
                t1v = np.array([0.0, 1.0, 0.0, 0.0])
                t2v = np.array([0.0, 0.0, t.real, t.imag])
            omega_j_only = hk_triple(m, pt)[1]
            sup_om = max(sup_om, abs(restrict(omega_j_only, t1v, t2v)))
            big_om = holomorphic_form_j(m, pt)
            val = complex(t1v @ big_om @ t2v)
            sup_im = max(sup_im, abs(val.imag))
    return sup_om, sup_im
