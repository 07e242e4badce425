"""Gluing a rescaled semi-flat end onto a reference metric over a disc.

All corrections here are radial in rho = |z| and enter through the
dz ^ dzbar coefficient only.  The reference form omega_0 is the semi-flat
form itself (alpha = 1) on the modeled annulus; the rescaled end is

    omega_sf(alpha) = omega_0 + (alpha - 1) i ddbar u,
    u = (k / 3 pi eps) (-log rho)^3,

whose square is alpha * Omega ^ Omegabar exactly.  The interpolation uses
a cutoff psi, a positivity reserve t * beta and the harmonic matching of u
on the gluing annulus.

The total mass integral is affine in (alpha, t) jointly: it is a fixed
combination of three radial quadratures, which a GlueConfig builds once per
node count and keeps.  The reserve t(alpha) is affine on each side of
alpha = 1, so the scale equation I(alpha, t(alpha)) = 0 has at most one
root on each side and need not have a unique one: the configuration
r = 0.2, s = 0.1, v0c = 40, vomc = 62 has I(1) < 0 < I(2) and roots near
0.8693 and 1.798.  solve_alpha returns the smallest root, from the first
doubling bracket above alpha = 1e-3 or, when both roots fall between two
doubling points, from the bracket that ends at the kink alpha = 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

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

    @staticmethod
    def _step(rho: np.ndarray, lo: float, hi: float):
        """Smoothstep from 1 at rho <= lo to 0 at rho >= hi, with d/drho, d2/drho2."""
        big = -np.log(rho)
        b_lo = -np.log(lo)
        b_hi = -np.log(hi)
        # lam runs 0 -> 1 as big runs b_hi -> b_lo (rho decreasing); the
        # polynomial and both derivatives are exactly 0 / 1, 0, 0 at the ends
        denom = b_lo - b_hi
        lam = np.clip((big - b_hi) / denom, 0.0, 1.0)
        val = lam ** 3 * (10.0 - 15.0 * lam + 6.0 * lam ** 2)
        d1 = 30.0 * lam ** 2 * (1.0 - lam) ** 2
        d2 = 60.0 * lam * (1.0 - 3.0 * lam + 2.0 * lam ** 2)
        # chain rule through lam(big(rho)); d big/d rho = -1/rho
        dlam = -1.0 / (denom * rho)
        ddlam = 1.0 / (denom * rho ** 2)
        return val, d1 * dlam, d2 * dlam ** 2 + d1 * ddlam

    def psi(self, rho: np.ndarray):
        """(psi, psi', psi'') along the rho array."""
        return self._step(rho, self.r + self.s, self.r + 2.0 * self.s)

    def beta(self, rho: np.ndarray) -> np.ndarray:
        """Coefficient of beta in [0, 1] (times i dz ^ dzbar) along rho."""
        # ramp 0 -> 1 as rho goes r -> r+s, down 1 -> 0 as r+2s -> r+3s
        up = 1.0 - self._step(rho, self.r, self.r + self.s)[0]
        down = self._step(rho, self.r + 2.0 * self.s, self.r + 3.0 * self.s)[0]
        return np.where(rho < self.r + self.s, up, down)


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
    # (S_1, S_t, S_a) of mass_integral per node count n
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
        edges = (self.r, self.r + self.s, self.r + 2.0 * self.s, self.r + 3.0 * self.s)
        logs = [-np.log(e) for e in edges]
        if not (edges[0] < edges[1] < edges[2] < edges[3]
                and logs[0] > logs[1] > logs[2] > logs[3]):
            raise ValidationError("s is too small: r, r+s, r+2s and r+3s (or their"
                                  " logarithms) are not distinct in floating point")
        if self.params.alpha != 1.0:
            raise ValidationError("reference params must have alpha = 1")
        if self.v0c <= 0 or self.vomc <= 0:
            raise ValidationError("external volume contributions must be positive")

    @property
    def cutoffs(self) -> Cutoffs:
        return Cutoffs(self.r, self.s)

    @functools.cached_property
    def _sup_u_zz(self) -> float:
        # required_t reads it on every evaluation of the scale equation
        return sup_u_zz(self)


def potential_u(p: sfm.ModelParams, rho: np.ndarray) -> np.ndarray:
    """Radial potential with i ddbar u equal to the base dz^dzbar term,
    along the rho array.

    Closed form (k / 3 pi eps)(-log rho)^3; defined for kappa = 1 only.
    """
    if not np.all((0.0 < rho) & (rho < 1.0)):
        raise ValidationError("rho must satisfy 0 < rho < 1")
    if not p.kappa_is_one():
        raise ValidationError("no closed-form potential for non-trivial kappa")
    return p.k / (3.0 * math.pi * p.eps) * (-np.log(rho)) ** 3


def u_zz(p: sfm.ModelParams, rho: np.ndarray) -> np.ndarray:
    """dz dzbar second derivative of the potential, |kappa|^2 k L / (2 pi eps rho^2)."""
    # kappa on the positive real ray, elementwise in rho
    kap2 = np.abs(p.kappa_at(rho)) ** 2
    return kap2 * p.k * (-np.log(rho)) / (TWO_PI * p.eps * rho ** 2)


def u_prime(p: sfm.ModelParams, rho: np.ndarray) -> np.ndarray:
    return -(p.k / (math.pi * p.eps)) * (-np.log(rho)) ** 2 / rho


def sup_u_zz(cfg: GlueConfig) -> float:
    """Sup of u_zzbar over the gluing annulus [r, r+3s] (attained at r)."""
    return u_zz(cfg.params, np.array([cfg.r])).item()


def harmonic_match(cfg: GlueConfig) -> tuple[float, float]:
    """Coefficients (A, B) of the radial harmonic v = A + B*(-log rho)
    matching u at rho = r and rho = r + 3s."""
    l1 = -math.log(cfg.r)
    l2 = -math.log(cfg.r + 3.0 * cfg.s)
    u1, u2 = potential_u(cfg.params, np.array([cfg.r, cfg.r + 3.0 * cfg.s]))
    b = (u1 - u2) / (l1 - l2)
    a = u1 - b * l1
    return a, b


def _match_defect(cfg: GlueConfig, rho: np.ndarray):
    """(u - v, (u - v)') along rho, for the harmonic match v of u."""
    a, b = harmonic_match(cfg)
    du = potential_u(cfg.params, rho) - (a + b * -np.log(rho))
    dup = u_prime(cfg.params, rho) + b / rho
    return du, dup


def claim2_scan(cfg: GlueConfig) -> float:
    """Fitted gluing constant sup(s^-2|u-v| + s^-1|(u-v)_z|) / sup u_zzbar,
    each sup over 400 radii."""
    du, dup = _match_defect(cfg, np.linspace(cfg.r + cfg.s, cfg.r + 2.0 * cfg.s, 400))
    lhs = np.max(np.abs(du) / cfg.s ** 2 + 0.5 * np.abs(dup) / cfg.s)
    rhs = np.max(u_zz(cfg.params, np.linspace(cfg.r, cfg.r + 3.0 * cfg.s, 400)))
    return float(lhs / rhs)


def _q_parts(cfg: GlueConfig, x: np.ndarray):
    """(beta, B) along the rho array x, with q = t * beta + (alpha - 1) * B:
    B is u_zz for rho <= r and the glued bracket where psi is non-zero above."""
    if not np.all((cfg.rho_min <= x) & (x <= cfg.rho_max)):
        raise ValidationError("rho outside the modeled annulus")
    cut = cfg.cutoffs
    uzz = u_zz(cfg.params, x)
    bracket = np.zeros_like(x)
    psi, psi_p, psi_pp = cut.psi(x)
    glued = (x > cfg.r) & (psi != 0.0)
    if np.any(glued):
        du, dup = _match_defect(cfg, x)
        psi_zz = 0.25 * (psi_pp + psi_p / x)
        bracket = np.where(glued, psi_zz * du + psi * uzz + 0.5 * psi_p * dup, 0.0)
    return cut.beta(x), np.where(x <= cfg.r, uzz, bracket)


def q_coefficient(cfg: GlueConfig, alpha: float, t: float, rho: np.ndarray) -> np.ndarray:
    """dz^dzbar coefficient added to omega_0 by the glued family along rho."""
    beta, bracket = _q_parts(cfg, rho)
    return t * beta + (alpha - 1.0) * bracket


def required_t(cfg: GlueConfig, alpha: float, t_prime: float = 1.0) -> float:
    """Positivity reserve C(r,s) t' + C0 |alpha - 1| sup u_zzbar."""
    require_finite(alpha=alpha, t_prime=t_prime)
    return C0_RS * t_prime + C0 * abs(alpha - 1.0) * cfg._sup_u_zz


# fiber heights Im(x) at which positivity_scan tests each radius
_SCAN_X2 = np.array([0.0, 0.35, 0.8])


def positivity_scan(cfg: GlueConfig, alpha: float, t: float,
                    n: int = 200,
                    window: tuple[float, float] | None = None) -> float:
    """Minimum eigenvalue margin of omega_alpha(t) - (omega_0 + psi i ddbar u_alpha)/2.

    window restricts the radial scan (defaults to the whole modeled
    annulus).  Raises a validation error when t is at or below the
    reserve threshold.  The (x, y) Hermitian blocks of all n radii and
    fiber heights go to one batched eigenvalue call.
    """
    require_finite(alpha=alpha, t=t)
    if alpha <= 0:
        raise ValidationError("alpha must be positive")
    t_req = required_t(cfg, alpha, 0.0)
    if t <= t_req:
        raise ValidationError(
            f"t = {t} too small for positivity; need t > {t_req:.6g}")
    lo, hi = window if window is not None else (cfg.rho_min, cfg.rho_max)
    if not (cfg.rho_min <= lo < hi <= cfg.rho_max):
        raise ValidationError("window must lie inside the modeled annulus")
    p = cfg.params
    rho = np.geomspace(lo * 1.0001, hi * 0.9999, n)
    ell = -np.log(rho)
    qc = q_coefficient(cfg, alpha, t, rho)
    psi = cfg.cutoffs.psi(rho)[0]
    half_term = 0.5 * psi * (alpha - 1.0) * u_zz(p, rho)
    # chart points (ell, 0, 0, x2): n radii against the fiber heights
    q = np.zeros((n, _SCAN_X2.size, 4))
    q[..., 0] = ell[:, None]
    q[..., 3] = _SCAN_X2
    cand = sfm.hermitian_matrix(p, q)
    cand *= 0.5
    cand[..., 1, 1] += ((qc - half_term) * rho ** 2)[:, None]
    return float(np.min(np.linalg.eigvalsh(cand)[..., 0]))


@functools.lru_cache(maxsize=8)
def _legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], shared and read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


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

    The sums are free of alpha and t: cfg keeps them per n from the first
    call that builds them (a build that raises keeps nothing).
    """
    require_finite(alpha=alpha, t=t)
    if alpha <= 0:
        raise ValidationError("alpha must be positive")
    if n not in cfg._sums:
        p = cfg.params
        nodes, weights = _legendre(n)
        bounds = np.array(sorted({cfg.r, cfg.r + cfg.s, cfg.r + 2.0 * cfg.s,
                                  cfg.r + 3.0 * cfg.s, cfg.rho_max}))
        # integrate in ell over each segment
        l_lo, l_hi = -np.log(bounds[1:]), -np.log(bounds[:-1])
        mid = (0.5 * (l_lo + l_hi))[:, None]
        half = (0.5 * (l_hi - l_lo))[:, None]
        ell = mid + half * nodes
        rho = np.exp(-ell)
        beta, bracket = _q_parts(cfg, rho)
        wkl = 4.0 * weights * half * p.k * ell
        lift = rho ** 2 * sfm.w_factor(p, ell) * p.eps * wkl
        cfg._sums[n] = (float(np.sum(wkl)), float(np.sum(lift * beta)),
                        float(np.sum(lift * bracket)))
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
    """
    require_finite(t_prime=t_prime)

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
    return AlphaSolve(alpha_star=root, t_at_root=t_of(root),
                      bracket=(a, hi), values=(fa, f_hi))
