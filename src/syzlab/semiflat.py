"""Semi-flat metrics near an I_k fiber, on the universal cover.

Chart order everywhere is (ell, theta, x1, x2) with y = ell + i*theta =
-log z and x = x1 + i*x2 the fiber coordinate.  The base form is

    omega_sf = i (|kappa|^2 / eps) W^{-1} dy ^ dybar
             + (i/2) W eps (dx - Gamma dy) ^ conj(dx - Gamma dy),

with W = 2*pi / (k*ell) and Gamma = i*Im(x)/ell + b0*ell/(2*pi^2).  The
model parameter alpha multiplies the whole form: the returned metric form
is alpha * omega_sf(b0, eps), so de Rham pairings scale linearly in alpha
and omega^2 = alpha^2 * Omega ^ Omegabar holds with Omega = kappa dy ^ dx.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import fibration as fib
from .errors import MA_TOL, NumericalError, ValidationError, require_finite
from .forms import top_coeff
from .moduli import moduli_dims  # re-exported as semiflat.moduli_dims
from .numerics import DecayFit, fit_decay, quad_grid

TWO_PI = 2.0 * math.pi

# translation-asymptotics variants
NOT_UNIFORM = "not_uniform"
BOUNDED_DIFFERENCE = "bounded_difference"
POWER_DECAY = "power_decay"
EXP_DECAY = "exp_decay"

# strict lower bounds of a valid chart point: ell > 0, the rest finite
_LOWER = np.array([0.0, -np.inf, -np.inf, -np.inf])
_INF = math.inf
_TWO_PI_SQ = 2.0 * math.pi ** 2


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the (possibly non-standard) semi-flat model.

    kappa is a finite polynomial {power: coeff} with kappa(0) = 1.
    """

    k: int
    eps: float = 1.0
    b0: float = 0.0
    alpha: float = 1.0
    kappa: dict = field(default_factory=dict)
    # (power, complex coefficient) of kappa's non-zero terms past kappa(0) = 1, built once
    _kappa_terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("k must be a positive integer")
        # one or two models per report: require_finite only words the error
        if not (math.isfinite(self.eps) and math.isfinite(self.b0) and math.isfinite(self.alpha)):
            require_finite(eps=self.eps, b0=self.b0, alpha=self.alpha)
        # kappa = 1, the common model, has no terms to check
        kappa = self.kappa
        if kappa and not all(cmath.isfinite(complex(c)) for c in kappa.values()):
            raise ValidationError("kappa coefficients must be finite")
        if not (self.eps > 0 and self.alpha > 0):
            raise ValidationError("eps and alpha must be positive")
        if kappa and complex(kappa.get(0, 0)) != 1.0 + 0.0j:
            raise ValidationError("kappa must satisfy kappa(0) = 1")
        if kappa and any(p < 0 for p in kappa):
            raise ValidationError("kappa must be polynomial (no poles)")
        object.__setattr__(self, "_kappa_terms", tuple(
            (p, complex(c)) for p, c in sorted(kappa.items()) if p and c) if kappa else ())

    def kappa_at(self, z):
        """kappa(z) at a complex z, or elementwise over an array of z."""
        kap = 1.0 + 0.0j
        for power, c in self._kappa_terms:
            kap = kap + c * z ** power
        return kap

    def kappa_of_y(self, ell, theta):
        """kappa(e^-y) at y = ell + i theta, elementwise; 1, forming no y, if kappa has no terms."""
        return self.kappa_at(np.exp(-(ell + 1j * theta))) if self._kappa_terms else 1.0 + 0.0j

    def kappa_is_one(self) -> bool:
        return not self._kappa_terms


def normal_form(p: ModelParams) -> tuple[ModelParams, float]:
    """(p1, s): p1 has k = eps = alpha = 1, b0 = 0 and p's kappa.  As c = 2 pi lambda/ell and
    d = |kappa|^2 ell/(pi lambda), lambda = eps/k, g = (alpha/lambda) Phi^* Psi^* g1 (Phi(x) =
    lambda x, Psi twist_slope's isometry): |Rm| and Gauss terms scale by s = eps/(k alpha),
    |II| and |H| by sqrt(s)."""
    return ModelParams(k=1, kappa=p.kappa), p.eps / p.k / p.alpha


def twist_slope(p: ModelParams, ell):
    """g_r' = b0' ell/(2 pi^2), b0' = (eps/k) b0, at ell or an array: the x2-slope that the
    isometry Psi(x) = x - b0' y^2/(4 pi^2) onto b0 = 0 adds to a lift -d/dtheta + s d/dx2, up
    to x1, as dx - Gamma dy = dx' - i (x2'/ell) dy.  NumericalError where b0' overflows."""
    b0 = p.eps / p.k * p.b0
    if not math.isfinite(b0):
        raise NumericalError(f"normal-form b0 = (eps/k) b0 = {b0} overflows")
    return b0 * ell / _TWO_PI_SQ


def w_factor(p: ModelParams, ell: float) -> float:
    return TWO_PI / (p.k * ell)


def _form_entries(p: ModelParams, ell, th, x2, exp):
    """alpha times (d + c|Gamma|^2, c*g_i, c*g_r, c, d) of sf_form_chart, on
    floats or arrays."""
    kap2 = 1.0
    if p._kappa_terms:
        kap = p.kappa_at(exp(-(ell + 1j * th)))
        # products, not abs(): numpy scalars and arrays round abs() differently
        kap2 = kap.real * kap.real + kap.imag * kap.imag
    w = w_factor(p, ell)
    c = w * p.eps
    d = 2.0 * kap2 / (p.eps * w)
    g_r = p.b0 * ell / _TWO_PI_SQ
    g_i = x2 / ell
    e01 = d + c * (g_r * g_r + g_i * g_i)
    a = p.alpha
    if a == 1.0:
        # 1.0 * x is x: glue's reference model skips five products
        return e01, c * g_i, c * g_r, c, d
    # alpha scales each finished entry, a * (c * g_i) and not (a * c) * g_i,
    # which keeps the bits of scaling the whole matrix by alpha
    return a * e01, a * (c * g_i), a * (c * g_r), a * c, a * d


def _reject_chart_point(q: np.ndarray):
    if not np.isfinite(q).all():
        raise ValidationError("chart point must be finite")
    raise ValidationError("chart point must have ell > 0")


def sf_form_point(p: ModelParams, ell: float, th: float, x1: float,
                  x2: float) -> tuple[float, float, float, float]:
    """Entries 01, 02, 12 and 23 (e01, c*g_i, c*g_r, c) of sf_form_chart at
    one chart point, on Python floats: they cost less per operation than
    numpy scalars and round the same.  Only a result that overflows or
    divides by zero is redone (and returned) on numpy scalars, so that
    np.errstate governs it as it governs a batch."""
    if not (0.0 < ell < _INF and -_INF < th < _INF
            and -_INF < x1 < _INF and -_INF < x2 < _INF):
        _reject_chart_point(np.array([ell, th, x1, x2]))
    try:
        e01, cg_i, cg_r, c, _ = _form_entries(p, ell, th, x2, cmath.exp)
    except ZeroDivisionError:
        e01 = c = _INF
    # |c*g_i| and |c*g_r| are at most max(c, e01), which are finite if
    # their sum is (a finite sum that overflows only takes the slow path)
    if not math.isfinite(e01 + c):
        e01, cg_i, cg_r, c, _ = _form_entries(p, np.float64(ell), np.float64(th),
                                              np.float64(x2), np.exp)
    return e01, cg_i, cg_r, c


def sf_form_chart(p: ModelParams, q: np.ndarray) -> np.ndarray:
    """Metric 2-form alpha * omega_sf at chart points q of shape (..., 4).

    Returns (..., 4, 4).  With Gamma = g_r + i*g_i, c = W*eps and
    d = 2|kappa|^2/(eps*W), the entries 01, 02, 03, 12, 13, 23 are
    alpha times d + c|Gamma|^2, c*g_i, -c*g_r, c*g_r, c*g_i and c: the
    closed form of d*(i/2) dy^dybar + c*(i/2) a^abar with a = dx - Gamma dy.
    A single point goes through sf_form_point, on Python floats.
    """
    q = np.asarray(q, dtype=float)
    if q.shape[-1:] != (4,):
        raise ValidationError("chart points must have shape (..., 4)")
    if q.ndim == 1:
        ell, th, x1, x2 = q.tolist()
        e01, cg_i, cg_r, c = sf_form_point(p, ell, th, x1, x2)
        z = 0.0 * c
        # one flat list of 16 floats converts faster than 4 nested rows
        return np.array([z, e01, cg_i, -cg_r, -e01, z, cg_r, cg_i,
                         -cg_i, -cg_r, z, c, cg_r, -cg_i, -c, z]).reshape(4, 4)
    if not ((q > _LOWER) & (q < np.inf)).all():
        _reject_chart_point(q)
    e01, cg_i, cg_r, c, _ = _form_entries(p, q[..., 0], q[..., 1], q[..., 3], np.exp)
    z = 0.0 * c
    m = np.array([[z, e01, cg_i, -cg_r], [-e01, z, cg_r, cg_i],
                  [-cg_i, -cg_r, z, c], [cg_r, -cg_i, -c, z]])
    return m.transpose(*range(2, m.ndim), 0, 1)


def holomorphic_volume_top(p: ModelParams, q: np.ndarray) -> np.ndarray:
    """Chart-volume coefficient of Omega ^ Omegabar, Omega = kappa dy ^ dx,
    at chart points q of shape (..., 4)."""
    q = np.asarray(q, dtype=float)
    return 4.0 * np.abs(p.kappa_of_y(q[..., 0], q[..., 1])) ** 2


# omega^2 = 2 Pf = 2 alpha^2 (c (d + c|Gamma|^2) - c^2 g_i^2 - c^2 g_r^2)
# cancels down to 2 alpha^2 c d: its terms are 1 + 2 rho times the result,
# rho = c|Gamma|^2 / d.  Rounding the entries and the Pfaffian leaves a
# relative error of at most (6 + 18 rho) u, u = 2^-53, and the right side
# alpha^2 4|kappa|^2 about 10 u more, so above this rho (about 5.0e4) an
# exact solution can fail the check
MA_RHO_MAX = (MA_TOL / 2.0 ** -53 - 16.0) / 18.0


def ma_residual(p: ModelParams, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(absolute, relative) Monge-Ampere defect omega^2 - alpha^2 Omega^Omegabar
    at chart points q of shape (..., 4).

    Raises NumericalError where some point's rho = c|Gamma|^2/d exceeds
    MA_RHO_MAX: float64 cannot resolve the defect there to MA_TOL.  With
    alpha^2 c d = rhs/2, rho = 2 (m02^2 + m03^2) / rhs cancels nothing.
    """
    m = sf_form_chart(p, q)
    lhs = top_coeff(m)
    rhs = p.alpha ** 2 * holomorphic_volume_top(p, q)
    res = np.abs(lhs - rhs)
    rel = res / np.abs(rhs)
    with np.errstate(over="ignore"):
        rho = 2.0 * (m[..., 0, 2] ** 2 + m[..., 0, 3] ** 2) / rhs
    if (rho > MA_RHO_MAX).any():
        raise NumericalError(
            f"float64 cannot resolve the Monge-Ampere defect to {MA_TOL:g}: the"
            f" cancellation ratio c|Gamma|^2/d reaches {np.max(rho):.3g}"
            f" > {MA_RHO_MAX:.3g}")
    return res, rel


def riemannian_metric_chart(p: ModelParams, q: np.ndarray) -> np.ndarray:
    """g(u, v) = omega(u, Jv) at chart points q of shape (..., 4).

    With J d/dell = d/dtheta and J d/dx1 = d/dx2, column b of g is column
    (1, 0, 3, 2)[b] of omega, negated for b = 1, 3: symmetric in every bit.
    + 0.0 turns -0.0 into 0.0; the result is C-contiguous, as omega @ J was.
    """
    g = sf_form_chart(p, q)[..., [1, 0, 3, 2]] * np.array([1.0, -1.0, 1.0, -1.0]) + 0.0
    return np.ascontiguousarray(g)


# ---------------------------------------------------------------------------
# translations by sections


def translation_defect(p: ModelParams, s: fib.SectionData, ell, theta) -> np.ndarray:
    """|T_s^* omega - omega|_g at the base points (ell, theta), broadcast, in closed form.

    T_s(x, y) = (x + eta(y), y) moves x2 by Im eta and nothing else of the point, so it
    leaves c and d unchanged and turns a = dx - Gamma dy into a - delta dy, with delta =
    i Im(eta)/ell - d eta/dy (the real part of Gamma cancels).  In the unitary coframe
    e1 = sqrt(alpha d) dy, e2 = sqrt(alpha c) a, where omega = (i/2)(e1 ^ e1bar + e2 ^ e2bar),
    the difference is

        T_s^* omega - omega = (i/2)(t e1 ^ e1bar - beta e1 ^ e2bar - conj(beta) e2 ^ e1bar),

    beta = sqrt(c/d) delta, t = |beta|^2 = (c/d)|delta|^2 = (W eps)^2 |delta|^2 / (2|kappa|^2).
    The coframe is unitary for g, so a form D = (i/2) H_jk e_j ^ e_kbar has |D|_g^2 = (1/2)
    D_ab D_cd g^ac g^bd = sum |H_jk|^2, and the defect is sqrt(t^2 + 2t) = sqrt(t (2 + t)),
    free of alpha, b0 and x; t >= 0, so no cancellation can make it imaginary.  It is computed
    as s hypot(sqrt(2), s) with s = sqrt(t) = W eps |delta| / (sqrt(2) |kappa|), which neither
    underflows nor overflows where the defect itself is a normal float and t or t^2 is not.
    W eps = 2 pi (eps/k)/ell and delta is linear: eta has the defect of (eps/k) eta at k = eps = 1.
    One z = e^-y feeds eta and eta_y (fibration.section_jet) and kappa.
    """
    ell, theta = np.asarray(ell, dtype=float), np.asarray(theta, dtype=float)
    if not (((ell > 0.0) & (ell < np.inf)).all() and np.isfinite(theta).all()):
        _reject_chart_point(np.append(ell, theta))
    y = ell + 1j * theta
    z = np.exp(-y)
    eta, eta_y = fib.section_jet(s, y, z)
    delta = 1j * (eta.imag / ell) - eta_y
    s = w_factor(p, ell) * p.eps * np.abs(delta) / (math.sqrt(2.0) * np.abs(p.kappa_at(z)))
    return s * np.hypot(math.sqrt(2.0), s)


def distance_r(p: ModelParams, ell) -> np.ndarray:
    """Leading-order metric distance from the I_k fiber at each ell, r = (2/3) sqrt(alpha/lambda)
    ell^(3/2)/sqrt(pi), lambda = eps/k; NumericalError where an r rounds to 0 or inf."""
    ell = np.asarray(ell, dtype=float)
    r = (2.0 / 3.0) * math.sqrt(p.alpha / (p.eps / p.k)) / math.sqrt(math.pi) * ell ** 1.5
    resolved = (r > 0.0) & (r < _INF)
    if not resolved.all():
        raise NumericalError(f"distance r = {r[~resolved].flat[0]} from the I_k fiber is not"
                             " resolved in float64")
    return r


def classify_translation(p: ModelParams, s: fib.SectionData):
    """(variant, r, values, fit) for the decay of the translated-metric defect at 12 base
    points (ell, 0), with lambda = eps/k.

    The section decides the variant: pole in h -> not uniform; b != 0 -> bounded difference;
    b = 0 with Im h(0) != 0 -> power decay ~ r^(-4/3); otherwise stretched-exponential decay,
    an exact isometry when h is a real constant and a is real (delta = 0 in
    translation_defect).  fit is the power-law or stretched-exponential fit of those classes,
    else None (an isometry has none); the caller checks that the samples agree.

    The window ell = 3, 4, ..., 14 follows the normal-form section.  The power class has s =
    pi sqrt(2) lambda |Im h(0)|/ell^2 + O(e^-ell) (translation_defect), so the window scaled
    by sqrt(max(lambda |Im h(0)|, 1)) reads the s of lambda |Im h(0)| = 1; in the stretched
    class lambda h_1 e^-y leads delta, and the window shifted by log(max(lambda |h_1|, 1))
    reads the lambda |h_1| e^-ell of lambda |h_1| = 1.
    """
    lam, ells, model = p.eps / p.k, TRANSLATION_ELLS, None
    if s.has_pole():
        variant = NOT_UNIFORM
    elif complex(s.b) != 0:
        variant = BOUNDED_DIFFERENCE
    elif s.h0().imag != 0:
        variant, model = POWER_DECAY, "power"
        ells = math.sqrt(max(lam * abs(s.h0().imag), 1.0)) * ells
    else:
        variant = EXP_DECAY
        if complex(s.a).imag != 0 or any(c for pw, c in s.h.items() if pw):
            model = "stretched_exp"
            ells = ells + math.log(max(lam * abs(complex(s.h.get(1, 0.0))), 1.0))
    r = distance_r(p, ells)  # NumericalError first where ell leaves float64's range
    vals = translation_defect(p, s, ells, 0.0)
    if not np.all(np.isfinite(vals)):
        raise NumericalError("non-finite translation defect")
    return variant, r, vals, fit_decay(r, vals, model=model) if model else None


# ---------------------------------------------------------------------------
# pairings with two-cycles


def pair_closed_form(p: ModelParams, c: fib.CycleSpec) -> float:
    """De Rham pairing of the metric class with [F] or [C_{m1,m2}]."""
    if c.fiber:
        return p.eps * p.alpha
    return (c.m1 * 2.0 * p.b0 / p.k + c.m2) * p.eps * p.alpha


def pair_cycle(p: ModelParams, c: fib.CycleSpec) -> float:
    """Pairing by quadrature of the restricted form over the cycle on c.grid(64),
    at base radius e^{-2*pi}.

    The form is evaluated one node at a time into one (4096, 4, 4) buffer and
    contracted with the tangents as t_a . omega . t_b once.  A single point
    and a batch of sf_form_chart agree bitwise, so one batched call would give
    the same pairing at about a hundredth of the cost; the loop stays while
    the benchmark counts kernel calls rather than points.
    """
    q, t_a, t_b = c.lift_grid(p.k, TWO_PI, 64)
    forms = np.empty((4096, 4, 4))
    for i, pt in enumerate(q.reshape(-1, 4)):
        forms[i] = sf_form_chart(p, pt)
    return float(quad_grid(((t_a @ forms) @ t_b).reshape(64, 64), c.grid(64)))


# ---------------------------------------------------------------------------
# curvature: the exact metric jet, and a finite-difference oracle

# g's entries as 4 x 4 patterns, read by dg and ddg as _D_PATTERNS: A at (ell ell), (theta theta);
# B = c g_i at (theta x1), (x1 theta), -B at (ell x2), (x2 ell); C = c at (x1 x1), (x2 x2)
_PATTERNS = np.array([[1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                      [0, 0, 0, -1, 0, 0, 1, 0, 0, 1, 0, 0, -1, 0, 0, 0],
                      [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1]], dtype=float)
_D_PATTERNS = _PATTERNS
_ELL_MAX = (16.0 * math.pi) ** (1.0 / 3.0) * 2.0 ** 340  # (4 pi)^(1/3) 2^(1022/3)


def _kappa_jet(p: ModelParams, ell, theta):
    """(kappa, kappa_y, kappa_yy) at y = ell + i theta, elementwise: kappa_y = sum -p c_p z^p
    and kappa_yy = sum p^2 c_p z^p, z = e^-y.  kappa(0) = 1 exactly (ModelParams checks it):
    that term adds exactly (1, 0, 0)."""
    kap, kap_y, kap_yy = 1.0 + 0.0j, 0.0j, 0.0j
    if p._kappa_terms:
        z = np.exp(-(ell + 1j * theta))
        for power, c in p._kappa_terms:
            term = c * z ** power
            kap, kap_y, kap_yy = kap + term, kap_y - power * term, kap_yy + power * power * term
    return kap, kap_y, kap_yy


def kappa_log_jet(p: ModelParams, ell, theta):
    """(K, w) = (|kappa|^2, ell kappa_y/kappa) at y = ell + i theta, elementwise: what the
    closed forms of |Rm| and |II| read of kappa; the scalars 1.0 and 0j where kappa has no
    non-zero term past kappa(0) = 1.  NumericalError where kappa vanishes (K = 0), as the
    metric's d = K ell/pi does there."""
    if not p._kappa_terms:
        return 1.0, 0j
    kap, kap_y, _ = _kappa_jet(p, ell, theta)
    big_k = kap.real * kap.real + kap.imag * kap.imag
    if not np.all(big_k > 0.0):
        ell0 = np.broadcast_to(ell, np.shape(big_k))[big_k == 0.0].flat[0]
        raise NumericalError(f"K = |kappa(e^-y)|^2 = 0 at ell = {ell0:.17g}: the metric"
                             " degenerates")
    return big_k, ell * kap_y / kap


def metric_jet(p: ModelParams, ell, theta) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(g, dg, ddg) of a normal-form model at the chart points (ell, theta, x1, 0), for ell and
    theta broadcast together, in closed form; any other model raises ValidationError.  Two
    isometries carry every point there: x -> x - b0 y^2/(4 pi^2) onto b0 = 0 (twist_slope),
    and on b0 = 0 x -> x + i a y, which keeps dx - i (x2/ell) dy, moves x2 by a ell and x1 by
    -a theta, and, linear in the chart, keeps every plane through d/dx1 without d/dell.  So
    |Rm|, and |II|, |H| and K_ambient of a lift's plane, depend on (ell, theta) alone.

    g has the bits of riemannian_metric_chart there, dg[..., e, a, b] = d_e g_ab and
    ddg[..., e, f, a, b] = d_e d_f g_ab.  g's entries are A = d + C g_i^2, B = C g_i and
    C = 2 pi/ell at g_i = x2/ell = 0, with d = 2K/C rounded as sf_form_chart rounds it and
    d/K = ell/pi taken as 2/C in the derivatives, K = |kappa(e^-y)|^2.  kappa is holomorphic
    in y = ell + i theta, so with kappa_y and kappa_yy of _kappa_jet, K_ell = 2 Re(conj(kappa)
    kappa_y), K_theta = -2 Im(conj(kappa) kappa_y), K_ell,ell and K_theta,theta = 2|kappa_y|^2
    +- 2 Re(conj(kappa) kappa_yy) and K_ell,theta = -2 Im(conj(kappa) kappa_yy).

    C_ell,ell = 4 pi/ell^3, the smallest non-zero term past ell = 2, leaves float64's
    normal range past ell = (4 pi)^(1/3) 2^(1022/3) = 8.27e102: NumericalError there.
    """
    if (p.k, p.eps, p.b0, p.alpha) != (1, 1.0, 0.0, 1.0):
        raise ValidationError("metric jet takes a normal-form model (k = eps = alpha = 1, b0 = 0)")
    ell, theta = np.asarray(ell, dtype=float), np.asarray(theta, dtype=float)
    if not (((ell > 0.0) & (ell <= _ELL_MAX)).all() and np.isfinite(theta).all()):
        if (ell > _ELL_MAX).any():
            raise NumericalError(f"metric jet term C_ell,ell = 4 pi/ell^3 is below float64's"
                                 f" normal range past ell = {_ELL_MAX:.3g}")
        _reject_chart_point(np.append(ell, theta))
    kap, kap_y, kap_yy = _kappa_jet(p, ell, theta)
    big_k = kap.real * kap.real + kap.imag * kap.imag
    ky2 = 2.0 * (kap_y.real * kap_y.real + kap_y.imag * kap_y.imag)
    two_conj = 2.0 * np.conj(kap)
    kk1, kk2 = two_conj * kap_y, two_conj * kap_yy
    k_l, k_t = kk1.real, -kk1.imag
    c0 = TWO_PI / ell
    c1, d_k = c0 / ell, 2.0 / c0
    c2 = 2.0 * c1 / ell
    lead = np.broadcast(ell, theta).shape
    # coefficients of the patterns A, B, C in g, d_e g and d_e d_f g
    coef = np.zeros(lead + (3,))
    coef[..., 0], coef[..., 2] = 2.0 * big_k / c0, c0
    d1 = np.zeros(lead + (4, 3))
    d1[..., 0, 0] = d_k * (k_l + big_k / ell)
    d1[..., 0, 2] = -c1
    d1[..., 1, 0] = d_k * k_t
    d1[..., 3, 1] = c1
    d2 = np.zeros(lead + (4, 4, 3))
    d2[..., 0, 0, 0] = d_k * (ky2 + kk2.real + 2.0 * k_l / ell)
    d2[..., 0, 0, 2] = c2
    d2[..., 0, 1, 0] = d2[..., 1, 0, 0] = d_k * (-kk2.imag + k_t / ell)
    d2[..., 1, 1, 0] = d_k * (ky2 - kk2.real)
    d2[..., 0, 3, 1] = d2[..., 3, 0, 1] = -c2
    d2[..., 3, 3, 0] = c2
    # each entry of g is one exact product and zeros, whatever order the matmul sums in
    return (coef @ _PATTERNS + 0.0).reshape(lead + (4, 4)), \
        (d1 @ _D_PATTERNS).reshape(lead + (4, 4, 4)), \
        (d2 @ _D_PATTERNS).reshape(lead + (4, 4, 4, 4))


def _christoffel(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma^a_{bc} = 1/2 g^{ad} X_dbc, X_dbc = d_b g_dc + d_c g_bd - d_d g_bc,
    from g^-1 (..., n, n) and dg[..., e, a, b] = d_e g_ab; (..., n, n, n)."""
    n = dg.shape[-1]
    x = np.swapaxes(dg, -3, -2) + np.swapaxes(dg, -3, -1) - dg
    return (ginv @ (0.5 * x).reshape(dg.shape[:-3] + (n, n * n))).reshape(dg.shape)


def _riemann(gam: np.ndarray, dgam: np.ndarray) -> np.ndarray:
    """R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb} + Gamma^a_{ce} Gamma^e_{db}
    - Gamma^a_{de} Gamma^e_{cb}, from Gamma (..., n, n, n) and
    dgam[..., e, a, b, c] = d_e Gamma^a_{bc}."""
    n = gam.shape[-1]
    lead = gam.shape[:-3]
    # Gamma^a_{ce} Gamma^e_{db} at [a, c, d, b]
    sq = (gam.reshape(lead + (n * n, n)) @ gam.reshape(lead + (n, n * n))).reshape(dgam.shape)
    half = np.einsum("...cadb->...abcd", dgam) + np.einsum("...acdb->...abcd", sq)
    return half - np.swapaxes(half, -1, -2)


def riemann_jet(p: ModelParams, ell, theta) -> tuple[np.ndarray, ...]:
    """(R^a_{bcd}, Gamma^a_{bc}, g, g^-1) at the base points (ell, theta) of metric_jet.
    d_e Gamma^a_{bc} = g^{ad} (1/2 d_e X_dbc - d_e g_dh Gamma^h_{bc}): the Christoffel
    formula on d_e dg, less g^-1 d_e g Gamma."""
    g, dg, ddg = metric_jet(p, ell, theta)
    ginv = np.linalg.inv(g)
    gam = _christoffel(ginv, dg)
    each_ginv = ginv[..., None, :, :]
    dgam = _christoffel(each_ginv, ddg) \
        - (each_ginv @ dg @ gam.reshape(g.shape[:-2] + (1, 4, 16))).reshape(ddg.shape)
    return _riemann(gam, dgam), gam, g, ginv


def _stencil(q: np.ndarray, h: float | np.ndarray) -> np.ndarray:
    """q and its central-difference neighbours, shape (..., 2n+1, n).

    h is one step, or one step per point (shape q.shape[:-1]).  Row 0 is
    q, row 1+a is q + h e_a and row 1+n+a is q - h e_a.  A step too small
    to move some coordinate of its point would give exactly zero
    differences, so it raises NumericalError instead.
    """
    q = np.asarray(q, dtype=float)
    h = np.asarray(h, dtype=float)[..., None]
    stuck = (q + h == q) | (q - h == q)
    if stuck.any():
        step = float(np.broadcast_to(h, q.shape)[stuck][0])
        raise NumericalError(f"finite-difference step {step!r} does not move the point")
    base = q[..., None, :]
    e = h[..., None] * np.eye(q.shape[-1])
    return np.concatenate((base, base + e, base - e), axis=-2)


def christoffel_fd(gf, q: np.ndarray, h: float | np.ndarray) -> np.ndarray:
    """Christoffel symbols Gamma^a_{bc} of a metric function by central
    differences: the finite-difference oracle of the jet.

    q has shape (..., n), h is one step or one per point, and gf maps
    (..., n) points to (..., n, n) metrics; the whole stencil of every
    point is one gf call.
    """
    n = np.shape(q)[-1]
    g = gf(_stencil(q, h))
    dg = (g[..., 1:n + 1, :, :] - g[..., n + 1:, :, :]) \
        / (2.0 * np.asarray(h)[..., None, None, None])
    return _christoffel(np.linalg.inv(g[..., 0, :, :]), dg)


def riemann_fd(gf, q: np.ndarray, h: float | np.ndarray) -> tuple[np.ndarray, ...]:
    """(R^a_{bcd}, Gamma^a_{bc}, g) at q by nested central differences: the
    finite-difference oracle of riemann_jet.

    h is one step or one per point.  The Christoffel symbols on the
    stencil of q come from one christoffel_fd call, i.e. one gf call on
    (2n+1)^2 points per q; Gamma is that call's row at q, the bits of
    christoffel_fd(gf, q, h).
    """
    n = np.shape(q)[-1]
    h = np.asarray(h, dtype=float)
    gam = christoffel_fd(gf, _stencil(q, h), h[..., None])
    dgam = (gam[..., 1:n + 1, :, :, :] - gam[..., n + 1:, :, :, :]) \
        / (2.0 * h[..., None, None, None, None])
    gam = gam[..., 0, :, :, :]
    return _riemann(gam, dgam), gam, gf(q)


# |Rm|_g r^2 on every point of a model with kappa = 1: |Rm|^2 r^4 = 128/27
RM_R2 = 8.0 * math.sqrt(6.0) / 9.0
# the ell of the curvature and |II| decay samples
DECAY_ELLS = np.linspace(5.0, 40.0, 10)
# the ell of the translation-defect samples, before classify_translation scales or shifts them
TRANSLATION_ELLS = np.linspace(3.0, 14.0, 12)
# the constant term of the |Rm| radicand 2|w|^2 + 6 Re w + 6
_RM_CONSTANT = 6.0


def rm_norm(p: ModelParams, ell, theta):
    """|Rm|_g at the base points (ell, theta) of metric_jet on the normal form of p's kappa (p's
    k, eps, b0 and alpha are not read), in closed form: (2 pi/(ell^3 K)) sqrt(2|w|^2 + 6 Re w
    + 6), with K and w of kappa_log_jet.

    |Rm|^2 = R_abcd R^abcd of riemann_jet reads the 2-jet of K.  In log K it is the square of
    the above plus pi^2 L (ell^2 L - 2)/(K^2 ell^4), L = Delta log K.  kappa is holomorphic and
    non-vanishing, so log K = 2 Re log kappa is harmonic and L = 0.  The rest reads only
    (log K)_ell = 2 Re(kappa_y/kappa) and (log K)_theta = -2 Im(kappa_y/kappa); tests derive
    it with sympy.  The radicand is 2|w + 3/2|^2 + 3/2 >= 3/2, which no rounding makes
    negative.  For kappa = 1, |Rm| = 2 pi sqrt(6)/ell^3 and |Rm| r^2 = RM_R2.
    """
    big_k, w = kappa_log_jet(p, ell, theta)
    radicand = 2.0 * (w.real * w.real + w.imag * w.imag) + 6.0 * w.real + _RM_CONSTANT
    return TWO_PI / (ell ** 3 * big_k) * np.sqrt(radicand)


def curvature_decay(p: ModelParams) -> tuple[np.ndarray, np.ndarray, DecayFit]:
    """|Rm|_g samples on the zero section at DECAY_ELLS against distance r, with a power-law
    fit: rm_norm at theta = 0, the |Rm| of p's normal form, scaled by s (normal_form).  For
    kappa = 1, |Rm| r^2 = RM_R2."""
    p1, s = normal_form(p)
    vals = s * rm_norm(p1, DECAY_ELLS, 0.0)
    r = distance_r(p, DECAY_ELLS)
    fit = fit_decay(r, vals, model="power")
    return r, vals, fit
