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
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import fibration as fib
from .errors import NumericalError, ValidationError, require_finite
from .forms import pullback_2form, top_coeff
from .numerics import DecayFit, fit_decay, quad_grid

TWO_PI = 2.0 * math.pi

# translation-asymptotics variants
NOT_UNIFORM = "not_uniform"
BOUNDED_DIFFERENCE = "bounded_difference"
POWER_DECAY = "power_decay"
EXP_DECAY = "exp_decay"

_DY = np.array([1.0, 1.0j, 0.0, 0.0])
_DX = np.array([0.0, 0.0, 1.0, 1.0j])

# strict lower bounds of a valid chart point: ell > 0, the rest finite
_LOWER = np.array([0.0, -np.inf, -np.inf, -np.inf])
_INF = math.inf


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
    # (power, complex coefficient) of kappa in increasing power, built once
    _kappa_terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("k must be a positive integer")
        require_finite(eps=self.eps, b0=self.b0, alpha=self.alpha)
        if not all(cmath.isfinite(complex(c)) for c in self.kappa.values()):
            raise ValidationError("kappa coefficients must be finite")
        if not (self.eps > 0 and self.alpha > 0):
            raise ValidationError("eps and alpha must be positive")
        if self.kappa and complex(self.kappa.get(0, 0)) != 1.0 + 0.0j:
            raise ValidationError("kappa must satisfy kappa(0) = 1")
        if any(p < 0 for p in self.kappa):
            raise ValidationError("kappa must be polynomial (no poles)")
        object.__setattr__(self, "_kappa_terms",
                           tuple((p, complex(c)) for p, c in sorted(self.kappa.items())))

    def kappa_at(self, z):
        """kappa(z) at a complex z, or elementwise over an array of z."""
        if not self._kappa_terms:
            return 1.0 + 0.0j
        kap = 0j
        for power, c in self._kappa_terms:
            kap = kap + c * z ** power
        return kap

    def kappa_is_one(self) -> bool:
        return all(c == 0 for p, c in self.kappa.items() if p != 0)


def w_factor(p: ModelParams, ell: float) -> float:
    return TWO_PI / (p.k * ell)


def _form_entries(p: ModelParams, ell, th, x2, exp):
    """alpha times (d + c|Gamma|^2, c*g_i, c*g_r, c) of sf_form_chart, on
    floats or arrays."""
    kap2 = 1.0
    if p.kappa:
        kap = p.kappa_at(exp(-(ell + 1j * th)))
        # products, not abs(): numpy scalars and arrays round abs() differently
        kap2 = kap.real * kap.real + kap.imag * kap.imag
    w = w_factor(p, ell)
    c = w * p.eps
    d = 2.0 * kap2 / (p.eps * w)
    g_r = p.b0 * ell / (2.0 * math.pi ** 2)
    g_i = x2 / ell
    a = p.alpha
    # alpha scales each finished entry, a * (c * g_i) and not (a * c) * g_i,
    # which keeps the bits of scaling the whole matrix by alpha
    return a * (d + c * (g_r * g_r + g_i * g_i)), a * (c * g_i), a * (c * g_r), a * c


def _reject_chart_point(q: np.ndarray):
    if not np.isfinite(q).all():
        raise ValidationError("chart point must be finite")
    raise ValidationError("chart point must have ell > 0")


def sf_form_chart(p: ModelParams, q: np.ndarray) -> np.ndarray:
    """Metric 2-form alpha * omega_sf at chart points q of shape (..., 4).

    Returns (..., 4, 4).  With Gamma = g_r + i*g_i, c = W*eps and
    d = 2|kappa|^2/(eps*W), the entries 01, 02, 03, 12, 13, 23 are
    alpha times d + c|Gamma|^2, c*g_i, -c*g_r, c*g_r, c*g_i and c: the
    closed form of d*(i/2) dy^dybar + c*(i/2) a^abar with a = dx - Gamma dy.
    A single point runs these formulas on Python floats, which cost less
    per operation than numpy scalars and round the same; only a result
    that overflows or divides by zero is redone on numpy scalars, so that
    np.errstate governs it as it governs a batch.
    """
    q = np.asarray(q, dtype=float)
    if q.shape[-1:] != (4,):
        raise ValidationError("chart points must have shape (..., 4)")
    if q.ndim == 1:
        ell, th, x1, x2 = q.tolist()
        if not (0.0 < ell < _INF and -_INF < th < _INF
                and -_INF < x1 < _INF and -_INF < x2 < _INF):
            _reject_chart_point(q)
        try:
            e01, cg_i, cg_r, c = _form_entries(p, ell, th, x2, cmath.exp)
        except ZeroDivisionError:
            e01 = c = _INF
        # |c*g_i| and |c*g_r| are at most max(c, e01), which are finite if
        # their sum is (a finite sum that overflows only takes the slow path)
        if not math.isfinite(e01 + c):
            e01, cg_i, cg_r, c = _form_entries(p, q[0], q[1], q[3], np.exp)
        z = 0.0 * c
        # one flat list of 16 floats converts faster than 4 nested rows
        return np.array([z, e01, cg_i, -cg_r, -e01, z, cg_r, cg_i,
                         -cg_i, -cg_r, z, c, cg_r, -cg_i, -c, z]).reshape(4, 4)
    if not ((q > _LOWER) & (q < np.inf)).all():
        _reject_chart_point(q)
    e01, cg_i, cg_r, c = _form_entries(p, q[..., 0], q[..., 1], q[..., 3], np.exp)
    z = 0.0 * c
    m = np.array([[z, e01, cg_i, -cg_r], [-e01, z, cg_r, cg_i],
                  [-cg_i, -cg_r, z, c], [cg_r, -cg_i, -c, z]])
    return m.transpose(*range(2, m.ndim), 0, 1)


def hermitian_matrix(p: ModelParams, q: np.ndarray) -> np.ndarray:
    """Hermitian matrix h of the metric form, omega = i sum h_jk dz_j ^ dzbar_k
    with z = (x, y), at chart points q of shape (..., 4); returns (..., 2, 2).

    In the notation of sf_form_chart, h = (alpha/2) [[c, -c conj(Gamma)],
    [-c Gamma, d + c|Gamma|^2]], from the same entries.  A single point
    runs the array loops of a batch, which round as a batch does.
    """
    q = np.asarray(q, dtype=float)
    pts = q.reshape(-1, 4)
    e01, cg_i, cg_r, c = _form_entries(p, pts[:, 0], pts[:, 1], pts[:, 3], np.exp)
    h = np.empty((len(pts), 2, 2), dtype=complex)
    h[:, 0, 0] = c
    h[:, 1, 0] = -(cg_r + 1j * cg_i)
    h[:, 0, 1] = np.conj(h[:, 1, 0])
    h[:, 1, 1] = e01
    return (0.5 * h).reshape(q.shape[:-1] + (2, 2))


def holomorphic_volume_top(p: ModelParams, q: np.ndarray) -> np.ndarray:
    """Chart-volume coefficient of Omega ^ Omegabar, Omega = kappa dy ^ dx,
    at chart points q of shape (..., 4)."""
    q = np.asarray(q, dtype=float)
    kap = p.kappa_at(np.exp(-(q[..., 0] + 1j * q[..., 1])))
    return 4.0 * np.abs(kap) ** 2


# relative tolerance of the Monge-Ampere checks
MA_TOL = 1e-10
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


def translate_pullback(p: ModelParams, s: fib.SectionData, q: np.ndarray) -> np.ndarray:
    """Pullback T_s^* (alpha * omega_sf) at chart points q of shape (..., 4).

    T_s(x, y) = (x + eta(y), y) with eta the section value, a function of
    y = ell + i*theta only, so in the chart the Jacobian is the identity
    plus the real form of d eta/dy in the (x1, x2) rows.
    """
    q = np.asarray(q, dtype=float)
    y = q[..., 0] + 1j * q[..., 1]
    eta = fib.section_eval_y(s, y)
    eta_y = fib.section_dy(s, y)
    target = q.copy()
    target[..., 2] += eta.real
    target[..., 3] += eta.imag
    jac = np.broadcast_to(np.eye(4), q.shape + (4,)).copy()
    jac[..., 2, 0] = eta_y.real
    jac[..., 2, 1] = -eta_y.imag
    jac[..., 3, 0] = eta_y.imag
    jac[..., 3, 1] = eta_y.real
    return pullback_2form(sf_form_chart(p, target), jac)


def translation_defect(p: ModelParams, s: fib.SectionData, q: np.ndarray) -> np.ndarray:
    """|T_s^* omega - omega|_g at chart points q of shape (..., 4).

    |d|_g^2 = (1/2) d_ab d_cd g^ac g^bd, the entrywise product of d with
    ginv @ d @ ginv.
    """
    d = translate_pullback(p, s, q) - sf_form_chart(p, q)
    ginv = np.linalg.inv(riemannian_metric_chart(p, q))
    val = 0.5 * np.sum(d * (ginv @ d @ ginv), axis=(-2, -1))
    if (val < -1e-12).any():
        raise NumericalError("negative squared norm")
    return np.sqrt(np.maximum(val, 0.0))


def distance_r(p: ModelParams, ell: float) -> float:
    """Leading-order metric distance from the I_k fiber, r ~ c * ell^(3/2)."""
    return (2.0 / 3.0) * math.sqrt(p.alpha * p.k / (math.pi * p.eps)) * ell ** 1.5


@dataclass(frozen=True)
class DecayClass:
    """Classification of |T_s^* omega - omega| as ell -> infinity."""

    variant: str
    fit: DecayFit | None
    bound: float | None
    r: np.ndarray
    values: np.ndarray


def classify_translation(p: ModelParams, s: fib.SectionData) -> DecayClass:
    """Classify the decay of the translated-metric defect, sampled at the 12
    points ell = 3, 4, ..., 14 with theta = 0 and x = 0.31.

    Structural mapping: pole in h -> not uniform; b != 0 -> bounded
    difference; b = 0 with Im h(0) != 0 -> power decay ~ r^(-4/3);
    b = 0 with h(0) real -> stretched-exponential decay.  The numeric
    samples must corroborate the predicted behaviour or a NumericalError
    is raised.
    """
    ells = np.linspace(3.0, 14.0, 12)
    q = np.stack(np.broadcast_arrays(ells, 0.0, 0.31, 0.0), axis=-1)
    vals = translation_defect(p, s, q)
    if not np.all(np.isfinite(vals)):
        raise NumericalError("non-finite translation defect")
    r = np.array([distance_r(p, ell) for ell in ells])

    if s.has_pole():
        if vals[-1] <= 2.0 * vals[0]:
            raise NumericalError("expected unbounded growth for a pole section")
        return DecayClass(NOT_UNIFORM, None, None, r, vals)

    if complex(s.b) != 0:
        lo, hi = float(np.min(vals)), float(np.max(vals))
        if hi > 50.0 * max(lo, 1e-300) or hi < 1e-14:
            raise NumericalError("expected a bounded, non-decaying defect")
        return DecayClass(BOUNDED_DIFFERENCE, None, hi, r, vals)

    if abs(s.h0().imag) > 1e-14:
        fit = fit_decay(r, vals, model="power")
        if fit.r_squared < 0.9:
            raise NumericalError("power-law fit inconsistent (r^2 < 0.9)")
        return DecayClass(POWER_DECAY, fit, None, r, vals)

    if np.max(vals) < 1e-14:
        # exact isometry (constant real translation); classify as fast decay
        return DecayClass(EXP_DECAY, None, float(np.max(vals)), r, vals)
    fit = fit_decay(r, vals, model="stretched_exp")
    if fit.r_squared < 0.9 or fit.exponent >= 0:
        raise NumericalError("stretched-exponential fit inconsistent")
    return DecayClass(EXP_DECAY, fit, None, r, vals)


# ---------------------------------------------------------------------------
# pairings with two-cycles


def pair_closed_form(p: ModelParams, c: fib.CycleSpec) -> float:
    """De Rham pairing of the metric class with [F] or [C_{m1,m2}]."""
    if c.fiber:
        return p.eps * p.alpha
    return (c.m1 * 2.0 * p.b0 / p.k + c.m2) * p.eps * p.alpha


def pair_cycle(p: ModelParams, c: fib.CycleSpec, n: int = 64) -> float:
    """Pairing by quadrature of the restricted form over the cycle on c.grid(n),
    at base radius e^{-2*pi}.

    The form is evaluated one node at a time and contracted with the
    tangents as t_a . omega . t_b once per block of whole grid rows of at
    most 4,096 nodes (one row if it is longer), which gives the bits of one
    contraction over all nodes.  A single point and a batch of
    sf_form_chart agree bitwise, so one batched call per block would give
    the same pairing at about a hundredth of the cost; the loop stays while
    the benchmark counts kernel calls rather than points.
    """
    q, t_a, t_b = c.lift_grid(p.k, TWO_PI, n)
    rows = max(1, 4096 // n)
    forms = np.empty((min(rows, n) * n, 4, 4))
    vals = np.empty((n, n))
    for r0 in range(0, n, rows):
        block = q[r0:r0 + rows].reshape(-1, 4)
        for i, pt in enumerate(block):
            forms[i] = sf_form_chart(p, pt)
        vals[r0:r0 + rows] = ((t_a @ forms[:len(block)]) @ t_b).reshape(-1, n)
    del q, forms  # before quad_grid copies vals
    return float(quad_grid(vals, c.grid(n)))


def moduli_dims(k: int) -> tuple[int, int, int]:
    """(dim of semi-flat family, dim H^2_dR, dim of hyperkahler family)."""
    if not (1 <= k <= 9):
        raise ValidationError("k must lie in 1..9")
    return (10 - k, 11 - k, 10 - k)


# ---------------------------------------------------------------------------
# curvature by finite differences


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
    """Christoffel symbols Gamma^a_{bc} of a metric function by central differences.

    q has shape (..., n), h is one step or one per point, and gf maps
    (..., n) points to (..., n, n) metrics; the whole stencil of every
    point is one gf call.
    """
    n = np.shape(q)[-1]
    g = gf(_stencil(q, h))
    dg = (g[..., 1:n + 1, :, :] - g[..., n + 1:, :, :]) \
        / (2.0 * np.asarray(h)[..., None, None, None])
    ginv = np.linalg.inv(g[..., 0, :, :])
    # Gamma^a_{bc} = 1/2 g^{ad} (d_b g_{dc} + d_c g_{bd} - d_d g_{bc})
    return 0.5 * np.einsum("...ad,...bdc->...abc", ginv,
                           dg + np.einsum("...cbd->...bdc", dg)
                           - np.einsum("...dbc->...bdc", dg))


def riemann_fd(gf, q: np.ndarray, h: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R^a_{bcd}, g) of a metric function by nested central differences.

    h is one step or one per point.  The Christoffel symbols on the
    stencil of q come from one christoffel_fd call, i.e. one gf call on
    (2n+1)^2 points per q.
    """
    n = np.shape(q)[-1]
    h = np.asarray(h, dtype=float)
    gam = christoffel_fd(gf, _stencil(q, h), h[..., None])
    dgam = (gam[..., 1:n + 1, :, :, :] - gam[..., n + 1:, :, :, :]) \
        / (2.0 * h[..., None, None, None, None])
    gam = gam[..., 0, :, :, :]
    # R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb} + Gamma^a_{ce} Gamma^e_{db} - Gamma^a_{de} Gamma^e_{cb}
    riem = (np.einsum("...cadb->...abcd", dgam) - np.einsum("...dacb->...abcd", dgam)
            + np.einsum("...ace,...edb->...abcd", gam, gam)
            - np.einsum("...ade,...ecb->...abcd", gam, gam))
    return riem, gf(q)


def curvature_decay(p: ModelParams) -> tuple[np.ndarray, np.ndarray, DecayFit]:
    """|Rm|_g samples on the zero section at 10 evenly spaced ell from 5 to
    40 against distance r, with a power-law fit.

    All samples are one riemann_fd call.  Each step is scaled to the local
    injectivity radius, which shrinks like 1/ell in the collapsing fiber
    directions.
    """
    ells = np.linspace(5.0, 40.0, 10)
    q = np.zeros(ells.shape + (4,))
    q[..., 0] = ells
    h = 1e-2 * np.minimum(1.0, 10.0 / ells)
    riem, g = riemann_fd(functools.partial(riemannian_metric_chart, p), q, h)
    ginv = np.linalg.inv(g)
    # |Rm|^2 = R_{abcd} R^{abcd}: lower the first index, raise the other three
    low = np.einsum("...ae,...ebcd->...abcd", g, riem)
    up = riem
    for _ in range(3):
        up = np.moveaxis(up @ ginv[..., None, None, :, :], -1, -3)
    val = np.sum(low * up, axis=(-4, -3, -2, -1))
    if (val < -1e-8).any():
        raise NumericalError("negative |Rm|^2 from finite differences")
    vals = np.sqrt(np.maximum(val, 0.0))
    r = np.array([distance_r(p, ell) for ell in ells])
    fit = fit_decay(r, vals, model="power")
    return r, vals, fit
