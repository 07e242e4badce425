"""Special Lagrangian fiber geometry of the semi-flat model.

The (quasi-)bad cycle C_{m1,m2} at |z| = e^{-ell}, lifted with tangents
T1 = d/dx1 and T2 = -d/dtheta + s d/dx2, has dy = -i dt2 and dx - Gamma dy
= (dt1 - g_i dt2) + i (g_r + s) dt2, so it carries the induced metric
B (dt1 - g_i dt2)^2 + A dt2^2 with B = alpha c and A = alpha (d + c (g_r +
s)^2).  B is constant on the cycle, and g_i = s t2/ell and A depend on t2
alone (d = |kappa(e^{-ell + i t2})|^2 k ell/(pi eps)), so in v = t1 - int
g_i dt2 the metric is the flat A dt2^2 + B dv^2.  For kappa = 1 and g_r + s
= 0 (special cycles) it is A dtheta^2 + B dx1^2 with A = alpha*k*ell/(pi*eps)
and B = alpha*2*pi*eps/(k*ell), so A*B = 2*alpha^2 independently of ell.

II comes from semiflat.metric_jet on the b0 = 0 normal form at (ell, theta, x1, 0), for the
plane of slope s + g_r' onto which x -> x - b0' y^2/(4 pi^2) maps the lift in eps up to x1
(semiflat.twist_slope); x -> x + i a y then moves x2 to 0 and keeps that plane.  So |II|,
|H|, K_ambient and |Rm| depend only on (ell, theta) and the plane.  For kappa = 1 every lift
plane is minimal, special or not, and |II|^2 = pi eps/(alpha k ell^3) = (4/9)/r^2 at every
point, whatever b0 and alpha (tests derive these in closed form).  second_fundamental_form
builds II, H and the Gauss terms from semiflat.riemann_jet; pi_decay reads |II| alone, in
closed form from kappa's log-derivative (pi_norm_sq).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fibration as fib
from . import semiflat as sf
from .errors import NumericalError, ValidationError, require_finite
from .numerics import DecayFit, fit_decay

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ModelFiber:
    """A (quasi-)bad cycle of the model at base radius e^{-ell}."""

    params: sf.ModelParams
    cycle: fib.CycleSpec
    ell: float

    def __post_init__(self):
        require_finite(ell=self.ell)
        if self.ell <= 0:
            raise ValidationError("ell must be positive")
        if self.cycle.fiber:
            raise ValidationError("slag fibers are bad cycles, not torus fibers")

    @cached_property
    def omega_terms(self) -> tuple[np.ndarray, np.ndarray]:
        """(c g_r', c s) as one-node arrays: on the lift in eps of the normal form,
        t_a = d/dx1 and t_b = -d/dtheta + s d/dx2 give omega(t_a, t_b) = c g_r' + c s,
        zero exactly when 2*b0/k = -m2/m1.  c = 2 pi/ell and c g_r' = b0'/pi depend
        on ell alone, which the lift fixes, so both are read at its origin."""
        # one node as an array: numpy words its overflow as on arrays, not "scalar multiply"
        ell = np.array([self.ell])
        s = self.cycle.x2_slope(self.params.eps, ell)
        g_r, c = sf.twist_slope(self.params, ell), TWO_PI / ell
        return c * g_r, c * s


@dataclass(frozen=True)
class FiberGeometry:
    """Closed-form flat-torus data of a model slag fiber."""

    a_coef: float
    b_coef: float
    lambda1: float
    volume: float
    diameter: float
    noncollapse_kappa: float
    noncollapse_scale: float


def fiber_geometry(mf: ModelFiber) -> FiberGeometry:
    """The flat torus A dtheta^2 + B dx1^2 of a kappa = 1 model (module docstring)."""
    p = mf.params
    if not p.kappa_is_one():
        raise ValidationError("no closed-form fiber geometry for non-trivial kappa")
    # lambda = eps/k formed first: pi eps and 2 pi eps overflow for eps of a valid model
    lam = p.eps / p.k
    a = p.alpha / lam * mf.ell / math.pi
    b = TWO_PI * p.alpha * (lam / mf.ell)
    vol = TWO_PI * math.sqrt(a * b) * mf.cycle.m1
    diam = max(math.pi * math.sqrt(a), 0.5 * math.sqrt(b))
    return FiberGeometry(a_coef=a, b_coef=b, lambda1=min(1.0 / a, 4.0 * math.pi ** 2 / b),
                         volume=vol, diameter=diam, noncollapse_kappa=math.sqrt(2.0),
                         noncollapse_scale=math.sqrt(b))


def lambda1_rayleigh(a: float, b: float) -> float:
    """First nonzero Laplace eigenvalue estimated by a discrete Rayleigh quotient.

    A five-point finite-difference Laplacian on 64 nodes per side of the
    flat rectangular torus with side lengths (2*pi*sqrt(a), sqrt(b)) is
    applied to the two fundamental modes; the smaller quotient estimates
    lambda_1.  A side of length L has the quotient of the unit circle over
    L^2, divided by L twice: neither h = L/64 nor L is squared, as L^2
    overflows while the quotient is still a normal float.
    """
    if a <= 0 or b <= 0:
        raise ValidationError("need positive coefficients")
    n = 64
    u = np.cos(TWO_PI * np.arange(n) / n)
    lap = (np.roll(u, 1) - 2.0 * u + np.roll(u, -1)) * n ** 2
    quot = float(-(u @ lap) / (u @ u))
    side_a, side_b = TWO_PI * math.sqrt(a), math.sqrt(b)
    return min(quot / side_a / side_a, quot / side_b / side_b)


def check_special(mf: ModelFiber) -> tuple[float, float]:
    """(sup |omega restriction|, sup calibration-phase defect) over the cycle:
    alpha |c g_r + c s| of omega_terms, the same at every point, and, as Omega
    restricts to i kappa, |Im kappa| over 32 base angles theta = -t2."""
    p = mf.params
    cg_r, cs = mf.omega_terms
    sup_phase = np.max(np.abs(p.kappa_of_y(mf.ell, -mf.cycle.grid(32).nodes2()).imag))
    return p.alpha * float(np.abs(cg_r + cs)[0]), float(sup_phase)


@dataclass(frozen=True)
class SecondFF:
    """Second-fundamental-form data of the embedded fiber at one point; h_rel = |H|/|II| and
    gauss_rel = |K_ambient + Pi| / (|K_ambient| + |Pi|) are free of the scale s."""

    pi_norm: float
    h_norm: float
    gauss_residual: float
    h_rel: float
    gauss_rel: float


# base angle theta = -t2 of the point where the second fundamental form is taken
_THETA = -0.7
# |II| r at every point of a special cycle of a model with kappa = 1
II_R = 2.0 / 3.0


def _fundamental_forms(g: np.ndarray, gam: np.ndarray, tan: np.ndarray):
    """II, |II|^2 and |H|^2 of surfaces with constant chart tangents, batched.

    g (..., 4, 4) and gam (..., 4, 4, 4) are the ambient metric and its
    Christoffel symbols Gamma^a_{bc} at the points, tan (..., 4, 2) the
    tangents.  Returns (II (..., 4, 2, 2), |II|^2, |H|^2, induced metric h).
    With II_n = II[n] as a 2 x 2 matrix, |II|^2 = g_nm <II_n, h^-1 II_m h^-1>
    and H = <II_n, h^-1>, both Frobenius products.
    """
    tan_t = np.swapaxes(tan, -1, -2)
    hin = tan_t @ g @ tan
    hinv = np.linalg.inv(hin)
    proj_n = np.eye(4) - tan @ hinv @ tan_t @ g
    # nabla_{T_i} T_j = Gamma^a_{cb} T^c_i T^b_j, coordinate-constant tangents
    nab = tan_t[..., None, :, :] @ gam @ tan[..., None, :, :]
    second = (proj_n @ nab.reshape(nab.shape[:-3] + (4, 4))).reshape(nab.shape)
    each_hinv = hinv[..., None, :, :]
    raised = (each_hinv @ second @ each_hinv).reshape(nab.shape[:-3] + (4, 4))
    flat = second.reshape(raised.shape)
    pi_sq = np.sum(flat * (g @ raised), axis=(-2, -1))
    mean = flat @ hinv.reshape(hinv.shape[:-2] + (4, 1))
    h_sq = (np.swapaxes(mean, -1, -2) @ g @ mean)[..., 0, 0]
    if (pi_sq < -1e-10).any() or (h_sq < -1e-10).any():
        raise NumericalError("negative squared norm in second fundamental form")
    return second, pi_sq, h_sq, hin


def second_fundamental_form(mf: ModelFiber) -> SecondFF:
    """|II|, |H| and a Gauss-equation residual at the cycle's point over theta = _THETA.

    Gauss: K_intrinsic = K_ambient(T1,T2) + Pi, Pi = <II_11,II_22> - |II_12|^2,
    after normalizing by the induced area element.  K_intrinsic is 0, as the
    induced metric B (dt1 - g_i dt2)^2 + A(t2) dt2^2, B constant, is flat
    (module docstring); II and K_ambient come from one riemann_jet call at the cycle's
    image on the b0 = 0 normal form, scaled by sqrt(s) and s: the residual catches a defect
    between II and K_ambient, not a wrong metric.  Raises NumericalError where a Gauss term
    leaves float64's normal range (2^-1022) and the check would compare zeros: K_ambient =
    |II|^2/2 = pi/(2 ell^3) on a kappa = 1 special cycle, past ell = 4.13e102.
    """
    p1, s = sf.normal_form(mf.params)
    tan = mf.cycle.lift(mf.params.eps, mf.ell)[1]
    tan[3, 1] += sf.twist_slope(mf.params, mf.ell)
    riem, gam, g, _ = sf.riemann_jet(p1, mf.ell, _THETA)
    second, pi_sq, h_sq, hin = _fundamental_forms(g, gam, tan)
    low = np.einsum("ae,ebcd->abcd", g, riem)
    area_sq = float(np.linalg.det(hin))
    t1v, t2v = tan[:, 0], tan[:, 1]
    k_amb = float(np.einsum("abcd,a,b,c,d->", low, t1v, t2v, t1v, t2v)) / area_sq
    pi_term = (float(second[:, 0, 0] @ g @ second[:, 1, 1])
               - float(second[:, 0, 1] @ g @ second[:, 0, 1])) / area_sq
    smallest = min(abs(k_amb), abs(pi_term))
    if not smallest >= np.finfo(float).tiny:
        raise NumericalError(
            f"Gauss term min(|K_ambient|, |<II_11,II_22> - |II_12|^2|) = {smallest:.3g}"
            f" is below float64's normal range ({np.finfo(float).tiny:.3g})")
    gauss, pi_sq, h_sq = abs(k_amb + pi_term), max(float(pi_sq), 0.0), max(float(h_sq), 0.0)
    # II = 0 has H = 0: 0/0 is 0
    return SecondFF(pi_norm=math.sqrt(s) * math.sqrt(pi_sq), h_norm=math.sqrt(s) * math.sqrt(h_sq),
                    gauss_residual=s * gauss, h_rel=math.sqrt(h_sq / pi_sq) if pi_sq else 0.0,
                    gauss_rel=gauss / (abs(k_amb) + abs(pi_term)))


# the constant term of the |II|^2 bracket of pi_norm_sq
_II_CONSTANT = 3.0


def pi_norm_sq(p: sf.ModelParams, ell, theta, slope):
    """|II|^2 at the base points (ell, theta) of metric_jet on the normal form of p's kappa, of
    the plane of T1 = d/dx1 and T2 = -d/dtheta + slope d/dx2, in closed form:

        |II|^2 = (pi/(4 K ell^3)) ((q/(1 + sigma) + 1)^2 + 3 + p^2 sigma/(1 + sigma)^3),

    q = 2 Re w, p = -2 Im w, with K and w of semiflat.kappa_log_jet, and sigma = 2 pi^2
    slope^2/(ell^2 K) = c slope^2/d, T2's squared length along d/dx2 over that along
    d/dtheta.  sigma = (a/b)^2 with a = sqrt(2) pi slope and b = ell sqrt(K), so 1/(1 + sigma)
    = (b/h)^2 and sigma/(1 + sigma) = (a/h)^2, h = hypot(a, b): neither overflows.  II reads
    the Christoffel symbols, so the 1-jet of K: q = ell (log K)_ell and p = ell (log K)_theta
    (tests derive it with sympy).  The bracket is at least 3.  For kappa = 1 (K = 1, w = 0) it
    is 1 + 3 wherever it is finite, so |II|^2 = pi/ell^3 at every slope, read at ell's shape
    without forming the bracket's other terms.
    """
    big_k, w = sf.kappa_log_jet(p, ell, theta)
    if not p._kappa_terms:
        return math.pi / (4.0 * big_k * ell ** 3) * (1.0 + _II_CONSTANT)
    q, p_im = 2.0 * w.real, -2.0 * w.imag
    a, b = math.sqrt(2.0) * math.pi * slope, ell * np.sqrt(big_k)
    h = np.hypot(a, b)
    t = (b / h) ** 2
    bracket = (q * t + 1.0) ** 2 + _II_CONSTANT + p_im * p_im * (a / h) ** 2 * t * t
    return math.pi / (4.0 * big_k * ell ** 3) * bracket


def pi_decay(p: sf.ModelParams, cycle: fib.CycleSpec) -> tuple[np.ndarray, np.ndarray, DecayFit]:
    """|II| samples at 10 evenly spaced ell from 5 to 40 against distance
    r, with a power-law fit (expect ~ -1).

    Every sample sits where second_fundamental_form takes |II|: pi_norm_sq on p's normal form
    at theta = _THETA, of the slope of the lift in eps plus twist_slope, scaled by sqrt(s).
    """
    if cycle.fiber:
        raise ValidationError("slag fibers are bad cycles, not torus fibers")
    p1, s = sf.normal_form(p)
    slope = cycle.x2_slope(p.eps, sf.DECAY_ELLS) + sf.twist_slope(p, sf.DECAY_ELLS)
    vals = math.sqrt(s) * np.sqrt(pi_norm_sq(p1, sf.DECAY_ELLS, _THETA, slope))
    r = sf.distance_r(p, sf.DECAY_ELLS)
    fit = fit_decay(r, vals, model="power")
    return r, vals, fit


def ball_area(l1: float, l2: float, delta: float) -> float:
    """Area of a metric ball in the flat torus with side lengths l1 >= l2.

    Valid while delta <= l1/2, so wrap-around happens at most in the short
    direction.
    """
    if l1 < l2:
        l1, l2 = l2, l1
    if delta <= 0:
        raise ValidationError("delta must be positive")
    if delta > 0.5 * l1:
        raise ValidationError("ball wraps in both directions; shrink delta")
    if delta <= 0.5 * l2:
        return math.pi * delta ** 2
    ustar = math.sqrt(delta ** 2 - 0.25 * l2 ** 2)
    return math.pi * delta ** 2 + ustar * l2 - 2.0 * delta ** 2 * math.asin(ustar / delta)


def noncollapse_check(geom: FiberGeometry, delta: float) -> tuple[float, float, bool]:
    """(ball volume, sqrt(2)*delta^2 bound, bound satisfied) at scale delta.

    The fiber torus is homogeneous, so the base point does not matter.
    Requires delta at most the non-collapsing scale sqrt(B).
    """
    if not (0.0 < delta <= geom.noncollapse_scale):
        raise ValidationError("delta must lie in (0, sqrt(B)]")
    l_theta = TWO_PI * math.sqrt(geom.a_coef)
    l_x = math.sqrt(geom.b_coef)
    vol = ball_area(l_theta, l_x, delta)
    bound = geom.noncollapse_kappa * delta ** 2
    return vol, bound, vol >= bound * (1.0 - 1e-12)
