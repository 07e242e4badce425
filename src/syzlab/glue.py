"""Gluing a rescaled semi-flat end onto a reference metric over a disc.

All corrections here are radial in rho = |z| and enter through the
dz ^ dzbar coefficient only.  The reference form omega_0 is the semi-flat
form itself (alpha = 1) on the modeled annulus; the rescaled end is

    omega_sf(alpha) = omega_0 + (alpha - 1) i ddbar u,
    u = (k / 3 pi eps) (-log rho)^3,

whose square is alpha * Omega ^ Omegabar exactly.  The interpolation uses
a cutoff psi, a positivity reserve t * beta and the harmonic matching of u
on the gluing annulus.  Each radial quantity (ell = -log rho, psi with its
two derivatives, beta, u_zzbar and u - v) is evaluated once per radius
array; beta is one smoothstep whose edges depend on the side of r + s.
The positivity margin reads each radius on the zero section with b0 = 0,
where the 2 x 2 (x, y) block is diagonal.

The total mass integral is affine in (alpha, t) jointly: it is a fixed
combination of three radial quadratures.  A GlueConfig keeps them per node
count, and one radial pass builds them for both rules of solve-alpha,
n = 64 and its refinement n = 128.  The reserve t(alpha) is affine on each
side of alpha = 1, so the scale equation I(alpha, t(alpha)) = 0 has at
most one root on each side and need not have a unique one: the configuration
r = 0.2, s = 0.1, v0c = 40, vomc = 62 has I(1) < 0 < I(2) and roots near
0.8693 and 1.798.  solve_alpha returns the smallest root.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import semiflat as sfm
from .errors import NumericalError, ValidationError, require_finite
from .numerics import find_root

TWO_PI = 2.0 * math.pi
# derivative-bound constant of the cutoffs, and the gluing constant C(r, s)
C0 = 8.0
C0_RS = 1.0


@dataclass(frozen=True)
class Cutoffs:
    """Quintic-smoothstep radial cutoffs for the gluing annulus.

    psi is 1 on rho <= r+s and 0 on rho >= r+2s; beta is supported on
    (r, r+3s) and equals 1 on [r+s, r+2s].
    """

    r: float
    s: float

    @property
    def edges(self) -> tuple[float, float, float, float]:
        return self.r, self.r + self.s, self.r + 2.0 * self.s, self.r + 3.0 * self.s

    @functools.cached_property
    def edge_logs(self) -> list:
        return [-np.log(e) for e in self.edges]

    @staticmethod
    def _step(ell, b_lo, b_hi):
        """(lam, b_lo - b_hi, smoothstep from 1 at ell >= b_lo to 0 at ell <= b_hi)."""
        # lam runs 0 -> 1 as ell = -log rho runs b_hi -> b_lo; the polynomial
        # and both derivatives are exactly 0 / 1, 0, 0 at the ends;
        # minimum(maximum()) is np.clip bit for bit, without its overhead
        denom = b_lo - b_hi
        lam = np.minimum(np.maximum((ell - b_hi) / denom, 0.0), 1.0)
        return lam, denom, lam ** 3 * (10.0 - 15.0 * lam + 6.0 * lam ** 2)

    def _psi(self, rho, ell):
        """(psi, psi', psi'') at rho, ell = -log rho."""
        lam, denom, val = self._step(ell, *self.edge_logs[1:3])
        d1 = 30.0 * lam ** 2 * (1.0 - lam) ** 2
        d2 = 60.0 * lam * (1.0 - 3.0 * lam + 2.0 * lam ** 2)
        # chain rule through lam(ell(rho)); d ell/d rho = -1/rho
        dlam = -1.0 / (denom * rho)
        ddlam = 1.0 / (denom * rho ** 2)
        return val, d1 * dlam, d2 * dlam ** 2 + d1 * ddlam

    def _beta(self, rho, ell):
        """beta at rho, ell = -log rho: one smoothstep whose edges are r, r+s
        below r+s and r+2s, r+3s from there on."""
        # ramp 0 -> 1 as rho goes r -> r+s, down 1 -> 0 as r+2s -> r+3s
        b = self.edge_logs
        up = rho < self.r + self.s
        val = self._step(ell, np.where(up, b[0], b[2]), np.where(up, b[1], b[3]))[2]
        return np.where(up, 1.0 - val, val)


@dataclass(frozen=True)
class GlueConfig:
    """Gluing data on the annulus rho_min < |z| < rho_max.

    v0c and vomc are the contributions of int omega_0^2 and
    int Omega ^ Omegabar outside the modeled region.
    The alpha used here squares the main-text scale: pairings of the glued
    family keep the fiber pairing eps fixed for every alpha.
    """

    params: sfm.ModelParams
    r: float
    s: float
    rho_min: float
    rho_max: float
    v0c: float
    vomc: float
    # (S_1, S_t, S_a) of mass_integral per node count n, built in one
    # radial pass for every rule a call lacks
    _sums: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        # params (ModelParams) already rejects a non-finite eps or b0
        require_finite(r=self.r, s=self.s, rho_min=self.rho_min,
                       rho_max=self.rho_max, v0c=self.v0c, vomc=self.vomc)
        if not (0.0 < self.rho_min < self.r):
            raise ValidationError("need 0 < rho_min < r")
        if self.s <= 0 or not (self.r + 3.0 * self.s < self.rho_max < 1.0):
            raise ValidationError("need r + 3s < rho_max < 1")
        # the cutoffs divide by differences of -log over these edges
        edges, logs = self.cutoffs.edges, self.cutoffs.edge_logs
        if not (edges[0] < edges[1] < edges[2] < edges[3]
                and logs[0] > logs[1] > logs[2] > logs[3]):
            raise ValidationError("s is too small: r, r+s, r+2s and r+3s (or their"
                                  " logarithms) are not distinct in floating point")
        if self.params.alpha != 1.0:
            raise ValidationError("reference params must have alpha = 1")
        if self.v0c <= 0 or self.vomc <= 0:
            raise ValidationError("external volume contributions must be positive")

    @functools.cached_property
    def cutoffs(self) -> Cutoffs:
        return Cutoffs(self.r, self.s)

    @functools.cached_property
    def sup_u_zz(self) -> float:
        """Sup of u_zzbar over the gluing annulus [r, r+3s], attained at r."""
        return u_zz(self.params, np.array([self.r])).item()


def potential_u(p: sfm.ModelParams, rho: np.ndarray) -> np.ndarray:
    """Radial potential with i ddbar u equal to the base dz^dzbar term,
    along the rho array.

    Closed form (k / 3 pi eps)(-log rho)^3; defined for kappa = 1 only.
    """
    if not np.all((0.0 < rho) & (rho < 1.0)):
        raise ValidationError("rho must satisfy 0 < rho < 1")
    if not p.kappa_is_one():
        raise ValidationError("no closed-form potential for non-trivial kappa")
    return _potential_u(p, -np.log(rho))


def u_zz(p: sfm.ModelParams, rho: np.ndarray) -> np.ndarray:
    """dz dzbar second derivative of the potential, |kappa|^2 k L / (2 pi eps rho^2)."""
    return _u_zz(p, rho, -np.log(rho))


# the radial kernels at rho and ell = -log rho, for callers that have ell


def _potential_u(p: sfm.ModelParams, ell: np.ndarray) -> np.ndarray:
    return p.k / (3.0 * math.pi * p.eps) * ell ** 3


def _u_zz(p: sfm.ModelParams, rho: np.ndarray, ell: np.ndarray) -> np.ndarray:
    # kappa on the positive real ray, elementwise in rho
    kap2 = np.abs(p.kappa_at(rho)) ** 2
    return kap2 * p.k * ell / (TWO_PI * p.eps * rho ** 2)


def _u_prime(p: sfm.ModelParams, rho: np.ndarray, ell: np.ndarray) -> np.ndarray:
    return -(p.k / (math.pi * p.eps)) * ell ** 2 / rho


def harmonic_match(cfg: GlueConfig) -> tuple[float, float]:
    """Coefficients (A, B) of the radial harmonic v = A + B*(-log rho)
    matching u at rho = r and rho = r + 3s."""
    l1 = -math.log(cfg.r)
    l2 = -math.log(cfg.r + 3.0 * cfg.s)
    u1, u2 = potential_u(cfg.params, np.array([cfg.r, cfg.r + 3.0 * cfg.s]))
    b = (u1 - u2) / (l1 - l2)
    a = u1 - b * l1
    return a, b


def _match_defect(cfg: GlueConfig, rho: np.ndarray, ell: np.ndarray):
    """(u - v, (u - v)') along rho, ell = -log rho, for the harmonic match v
    of u; harmonic_match rejects a non-trivial kappa, as potential_u does."""
    a, b = harmonic_match(cfg)
    du = _potential_u(cfg.params, ell) - (a + b * ell)
    dup = _u_prime(cfg.params, rho, ell) + b / rho
    return du, dup


def claim2_scan(cfg: GlueConfig) -> float:
    """Fitted gluing constant sup(s^-2|u-v| + s^-1|(u-v)_z|) / sup u_zzbar,
    each sup over 400 radii."""
    rho = np.linspace(cfg.r + cfg.s, cfg.r + 2.0 * cfg.s, 400)
    du, dup = _match_defect(cfg, rho, -np.log(rho))
    lhs = np.max(np.abs(du) / cfg.s ** 2 + 0.5 * np.abs(dup) / cfg.s)
    rhs = np.max(u_zz(cfg.params, np.linspace(cfg.r, cfg.r + 3.0 * cfg.s, 400)))
    return float(lhs / rhs)


def _q_parts(cfg: GlueConfig, x: np.ndarray, ell: np.ndarray):
    """(beta, B, psi, u_zz) along the rho array x, ell = -log x, each
    evaluated once, with q = t * beta + (alpha - 1) * B: B is u_zz for
    rho <= r and the glued bracket where psi is non-zero above; x lies in
    the modeled annulus."""
    cut = cfg.cutoffs
    uzz = _u_zz(cfg.params, x, ell)
    bracket = np.zeros_like(x)
    psi, psi_p, psi_pp = cut._psi(x, ell)
    glued = (x > cfg.r) & (psi != 0.0)
    if glued.any():
        du, dup = _match_defect(cfg, x, ell)
        psi_zz = 0.25 * (psi_pp + psi_p / x)
        bracket = np.where(glued, psi_zz * du + psi * uzz + 0.5 * psi_p * dup, 0.0)
    return cut._beta(x, ell), np.where(x <= cfg.r, uzz, bracket), psi, uzz


def q_coefficient(cfg: GlueConfig, alpha: float, t: float, rho: np.ndarray) -> np.ndarray:
    """dz^dzbar coefficient added to omega_0 by the glued family along rho."""
    if not np.all((cfg.rho_min <= rho) & (rho <= cfg.rho_max)):
        raise ValidationError("rho outside the modeled annulus")
    beta, bracket = _q_parts(cfg, rho, -np.log(rho))[:2]
    return t * beta + (alpha - 1.0) * bracket


def required_t(cfg: GlueConfig, alpha: float, t_prime: float = 1.0) -> float:
    """Positivity reserve C(r,s) t' + C0 |alpha - 1| sup u_zzbar."""
    # about 50 calls per solve_alpha: require_finite only words the error
    if not (math.isfinite(alpha) and math.isfinite(t_prime)):
        require_finite(alpha=alpha, t_prime=t_prime)
    return C0_RS * t_prime + C0 * abs(alpha - 1.0) * cfg.sup_u_zz


def _log_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """np.geomspace(lo, hi, n) bit for bit for lo, hi > 0, without its sign,
    dtype and zero handling: 10 ** linspace of log10, the ends set exactly."""
    rho = 10.0 ** np.linspace(np.log10(lo), np.log10(hi), n)
    rho[-1], rho[0] = hi, lo
    return rho


POSITIVITY_SUM_ERR = 32.0 * 2.0 ** -53


def positivity_scan(cfg: GlueConfig, alpha: float, t: float) -> float:
    """Minimum eigenvalue margin of omega_alpha(t) - (omega_0 + psi i ddbar u_alpha)/2.

    The scan takes 200 radii from 1.0001 rho_min to 0.9999 rho_max
    (_log_grid).  Raises a validation error when t is at or below the
    reserve threshold, or when those radii leave the annulus.  b0 (the
    isometry of semiflat.twist_slope) and x2 (x -> x + i a y) are carried
    by isometries of omega_0 that fix the base, where the glued terms live,
    to Gamma = 0: there the (x, y) block is diag(c/4, d/4 + X), congruent
    to the chart's block, and the margin is the least min(c/4, d/4 + X).

    The margin has the sign of d/4 + X, rounded to within POSITIVITY_SUM_ERR
    = 32u times |d/4| + |X|, u = 2^-53: d rounds 4 times, X 7 times on each
    of two terms that cancel by at most 3x below r, where d/4 + X = alpha
    d/4, and the sum once.  Below the bound NumericalError is raised (alpha
    < 7e-15 below r); the bound omits the cancellation of u - v in X.
    """
    require_finite(alpha=alpha, t=t)
    if alpha <= 0:
        raise ValidationError("alpha must be positive")
    t_req = required_t(cfg, alpha, 0.0)
    if t <= t_req:
        raise ValidationError(
            f"t = {t} too small for positivity; need t > {t_req:.6g}")
    lo, hi = cfg.rho_min * 1.0001, cfg.rho_max * 0.9999
    # an annulus narrower than 1e-4 (rho_max/rho_min < 1.0001) reverses the grid and leaves it
    if not (cfg.rho_min <= hi and lo <= cfg.rho_max):
        raise ValidationError("rho outside the modeled annulus")
    rho = _log_grid(lo, hi, 200)
    ell = -np.log(rho)
    beta, bracket, psi, uzz = _q_parts(cfg, rho, ell)
    qc = t * beta + (alpha - 1.0) * bracket
    x = (qc - 0.5 * psi * (alpha - 1.0) * uzz) * rho ** 2
    c, d = sfm._form_entries(replace(cfg.params, b0=0.0), ell, 0.0, 0.0, np.exp)[3:]
    d_x = 0.25 * d + x
    unresolved = np.abs(d_x) < POSITIVITY_SUM_ERR * (0.25 * d + np.abs(x))
    if unresolved.any():
        raise NumericalError("float64 cannot resolve positivity_margin: d/4 + X ="
                             f" {d_x[unresolved][0]:.3g} is within its rounding bound")
    return float(np.minimum(0.25 * c, d_x).min())


@functools.lru_cache(maxsize=8)
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], shared and read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


# solve-alpha's rule and its refinement, built together
_SOLVE_RULES = (64, 128)


def mass_integral(cfg: GlueConfig, alpha: float, t: float, n: int = 64) -> float:
    """I(alpha, t) = int omega_alpha(t)^2 - alpha Omega ^ Omegabar.

    The integrand vanishes identically below rho = r where the glued form
    is the exactly-solving rescaled semi-flat metric; the rest is a radial
    integral plus the external constants v0c - alpha * vomc.  Each segment
    between the cutoff breakpoints gets n Gauss-Legendre nodes in ell (one
    (segments, n) array, weights W).  With q = t * beta + (alpha - 1) * B,

        I = (1 - alpha) S_1 + t S_t + (alpha - 1) S_a + v0c - alpha vomc,
        S_1 = sum 4 W k ell,   S_t = sum 4 rho^2 w eps beta W k ell,
        S_a = sum 4 rho^2 w eps B W k ell.

    The sums are free of alpha and t: cfg keeps them per n.  The first
    call builds n and every rule of _SOLVE_RULES that cfg lacks in one
    radial pass, each rule's array flattened and laid end to end; each
    rule's sums reduce its own contiguous slice, so they have the bits of
    a build of that rule alone (a build that raises keeps nothing).
    """
    # about 50 calls per solve_alpha: require_finite only words the error
    if not (math.isfinite(alpha) and math.isfinite(t)):
        require_finite(alpha=alpha, t=t)
    if alpha <= 0:
        raise ValidationError("alpha must be positive")
    if n not in cfg._sums:
        p = cfg.params
        ns = sorted({n, *_SOLVE_RULES} - cfg._sums.keys())
        bounds = np.array(sorted({*cfg.cutoffs.edges, cfg.rho_max}))
        # integrate in ell over each segment
        l_lo, l_hi = -np.log(bounds[1:]), -np.log(bounds[:-1])
        mid = (0.5 * (l_lo + l_hi))[:, None]
        half = (0.5 * (l_hi - l_lo))[:, None]
        rules = [_legendre(m) for m in ns]
        ell = np.concatenate([(mid + half * nodes).ravel() for nodes, _ in rules])
        w_half = np.concatenate([(4.0 * weights * half).ravel() for _, weights in rules])
        rho = np.exp(-ell)
        beta, bracket = _q_parts(cfg, rho, -np.log(rho))[:2]
        wkl = w_half * p.k * ell
        lift = rho ** 2 * sfm.w_factor(p, ell) * p.eps * wkl
        terms = (wkl, lift * beta, lift * bracket)
        cuts = np.cumsum([mid.size * m for m in ns])
        for m, lo, hi in zip(ns, [0, *cuts], cuts):
            cfg._sums[m] = tuple(float(np.sum(a[lo:hi])) for a in terms)
    s_1, s_t, s_a = cfg._sums[n]
    return ((1.0 - alpha) * s_1 + t * s_t + (alpha - 1.0) * s_a
            + cfg.v0c - alpha * cfg.vomc)


@dataclass(frozen=True)
class AlphaSolve:
    """Root of the mass integral with the alpha-dependent reserve t(alpha)."""

    alpha_star: float
    t_at_root: float
    bracket: tuple[float, float]
    values: tuple[float, float]


def solve_alpha(cfg: GlueConfig, t_prime: float = 1.0, n: int = 64) -> AlphaSolve:
    """Root of f(alpha) = I(alpha, t(alpha)) with t(alpha) = required_t(alpha, t').

    Doubles alpha from 1e-3 until f turns negative and refines the root in
    that first bracket.  f is affine on each side of alpha = 1 and positive
    at 1e-3, so it crosses downward at most once: the root returned is the
    smallest root, even where a second, upward crossing exists above
    alpha = 1.  When both roots lie between two doubling points, no
    doubling point is negative but the kink is: f(1) < 0 then brackets the
    smaller root with the last doubling point below 1.  Otherwise
    NumericalError is raised.

    t' must be positive, so that t(alpha) lies above positivity_scan's
    threshold required_t(alpha, 0); NumericalError is raised where the
    reserve C(r,s) t' rounds away at the root.
    """
    require_finite(t_prime=t_prime)
    if t_prime <= 0:
        raise ValidationError(f"tprime must be positive, got {t_prime}")

    def t_of(alpha):
        return required_t(cfg, alpha, t_prime)

    def f(alpha):
        return mass_integral(cfg, alpha, t_of(alpha), n=n)

    lo = 1e-3
    f_lo = f(lo)
    if f_lo <= 0:
        raise ValidationError("mass integral not positive at small alpha; "
                              "check v0c/vomc")
    hi = lo
    for _ in range(40):
        hi *= 2.0
        f_hi = f(hi)
        if f_hi < 0:
            a = hi / 2.0
            break
    else:
        a = lo * 2.0 ** math.floor(math.log2(1.0 / lo))
        hi, f_hi = 1.0, f(1.0)
        if not f_hi < 0:
            raise NumericalError("no sign change found for the mass integral")
    fa = f(a)
    if fa <= 0:
        a, fa = lo, f_lo
    root = find_root(f, a, hi)
    t_root = t_of(root)
    if t_root <= required_t(cfg, root, 0.0):
        raise NumericalError(f"the reserve C(r,s) t' = {C0_RS * t_prime:.3g} is lost in"
                             f" rounding: t = {t_root!r} at alpha = {root!r} is not above"
                             " positivity's threshold")
    return AlphaSolve(alpha_star=root, t_at_root=t_root,
                      bracket=(a, hi), values=(fa, f_hi))
