"""Special Lagrangian fiber geometry of the semi-flat model.

The (quasi-)bad cycle C_{m1,m2} at |z| = e^{-ell} carries the induced flat
metric A dtheta^2 + B dx1^2 with A = alpha*k*ell/(pi*eps) and
B = alpha*2*pi*eps/(k*ell), so A*B = 2*alpha^2 independently of ell.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import fibration as fib
from . import semiflat as sf
from .errors import NumericalError, ValidationError, require_finite
from .forms import wedge_11
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
    p = mf.params
    a = p.alpha * p.k * mf.ell / (math.pi * p.eps)
    b = p.alpha * TWO_PI * p.eps / (p.k * mf.ell)
    lam = min(1.0 / a, 4.0 * math.pi ** 2 / b)
    vol = TWO_PI * math.sqrt(a * b) * mf.cycle.m1
    diam = max(math.pi * math.sqrt(a), 0.5 * math.sqrt(b))
    return FiberGeometry(a_coef=a, b_coef=b, lambda1=lam, volume=vol,
                         diameter=diam, noncollapse_kappa=math.sqrt(2.0),
                         noncollapse_scale=math.sqrt(b))


def lambda1_rayleigh(a: float, b: float) -> float:
    """First nonzero Laplace eigenvalue estimated by a discrete Rayleigh quotient.

    A five-point finite-difference Laplacian on 64 nodes per side of the
    flat rectangular torus with side lengths (2*pi*sqrt(a), sqrt(b)) is
    applied to the two fundamental modes; the smaller quotient estimates
    lambda_1.
    """
    if a <= 0 or b <= 0:
        raise ValidationError("need positive coefficients")
    n = 64
    best = math.inf
    for length in (TWO_PI * math.sqrt(a), math.sqrt(b)):
        h = length / n
        s = np.arange(n) * h
        u = np.cos(TWO_PI * s / length)
        lap = (np.roll(u, 1) - 2.0 * u + np.roll(u, -1)) / h ** 2
        quot = -(u @ lap) / (u @ u)
        best = min(best, float(quot))
    return best


def check_special(mf: ModelFiber) -> tuple[float, float]:
    """(sup |omega restriction|, sup calibration-phase defect) over the cycle.

    The phase defect is |Im(e^{-i pi/2} Omega)| restricted, which vanishes
    exactly for kappa = 1; for the Lagrangian condition the cycle must
    satisfy 2*b0/k = -m2/m1.  The sup runs over the 32 x 32 parameter grid.
    """
    p = mf.params
    q, t_a, t_b = mf.cycle.lift_grid(p.k, mf.ell, 32)
    sup_omega = np.max(np.abs(t_a @ sf.sf_form_chart(p, q) @ t_b))
    kap = p.kappa_at(np.exp(-(q[..., 0] + 1j * q[..., 1])))
    val = kap * (t_a @ wedge_11(sf._DY, sf._DX) @ t_b)
    sup_phase = np.max(np.abs((-1j * val).imag))
    return float(sup_omega), float(sup_phase)


@dataclass(frozen=True)
class SecondFF:
    """Second-fundamental-form data of the embedded fiber at one point."""

    pi_norm: float
    h_norm: float
    gauss_residual: float


# cycle parameters (t1, t2) of the point where the second fundamental form is taken
_T = np.array([0.2, 0.7])


def _step(ell: float) -> float:
    """Finite-difference step of the second fundamental form at radius ell."""
    return 2e-3 * min(1.0, 10.0 / max(ell, 1.0))


def _fundamental_forms(gf, q: np.ndarray, tan: np.ndarray, h: float | np.ndarray):
    """II, |II|^2 and |H|^2 of surfaces with constant chart tangents, batched.

    gf is the ambient metric function, q has shape (..., 4), tan
    (..., 4, 2) and h is one step or one per point; the Christoffel
    symbols of every point are one christoffel_fd call.  Returns
    (II (..., 4, 2, 2), |II|^2, |H|^2, g, induced metric).
    """
    tan_t = np.swapaxes(tan, -1, -2)
    g = gf(q)
    hin = tan_t @ g @ tan
    hinv = np.linalg.inv(hin)
    proj_n = np.eye(4) - tan @ hinv @ tan_t @ g
    gam = sf.christoffel_fd(gf, q, h)
    # nabla_{T_i} T_j, coordinate-constant tangent components
    nab = np.einsum("...ci,...bj,...acb->...aij", tan, tan, gam)
    second = np.einsum("...na,...aij->...nij", proj_n, nab)
    pi_sq = np.einsum("...nij,...mkl,...ik,...jl,...nm->...",
                      second, second, hinv, hinv, g)
    mean = np.einsum("...nij,...ij->...n", second, hinv)
    h_sq = np.einsum("...n,...nm,...m->...", mean, g, mean)
    if (pi_sq < -1e-10).any() or (h_sq < -1e-10).any():
        raise NumericalError("negative squared norm in second fundamental form")
    return second, pi_sq, h_sq, g, hin


def second_fundamental_form(mf: ModelFiber) -> SecondFF:
    """|II|, |H| and a Gauss-equation residual at the cycle point _T.

    Gauss: K_intrinsic = K_ambient(T1,T2) + (<II_11,II_22> - |II_12|^2)
    after normalizing by the induced area element.
    """
    p = mf.params
    origin, tan = mf.cycle.lift(p.k, mf.ell)
    q, h = origin + tan @ _T, _step(mf.ell)
    gf = functools.partial(sf.riemannian_metric_chart, p)
    second, pi_sq, h_sq, g, hin = _fundamental_forms(gf, q, tan, h)
    riem, _ = sf.riemann_fd(gf, q, h)
    low = np.einsum("ae,ebcd->abcd", g, riem)
    area_sq = float(np.linalg.det(hin))
    t1v, t2v = tan[:, 0], tan[:, 1]
    k_amb = float(np.einsum("abcd,a,b,c,d->", low, t1v, t2v, t1v, t2v)) / area_sq
    pi_term = (float(second[:, 0, 0] @ g @ second[:, 1, 1])
               - float(second[:, 0, 1] @ g @ second[:, 0, 1])) / area_sq

    def induced(tt):
        return tan.T @ gf(origin + tt @ tan.T) @ tan

    riem2, h2 = sf.riemann_fd(induced, _T, h)
    low2 = np.einsum("ae,ebcd->abcd", h2, riem2)
    k_int = float(low2[0, 1, 0, 1]) / float(np.linalg.det(h2))

    gauss = abs(k_int - (k_amb + pi_term))
    return SecondFF(pi_norm=math.sqrt(max(pi_sq, 0.0)),
                    h_norm=math.sqrt(max(h_sq, 0.0)),
                    gauss_residual=gauss)


def pi_decay(p: sf.ModelParams, cycle: fib.CycleSpec) -> tuple[np.ndarray, np.ndarray, DecayFit]:
    """|II| samples at 10 evenly spaced ell from 5 to 40 against distance
    r, with a power-law fit (expect ~ -1).

    Every sample sits at the point and step second_fundamental_form uses,
    and all of them are one christoffel_fd call.
    """
    if cycle.fiber:
        raise ValidationError("slag fibers are bad cycles, not torus fibers")
    ells = np.linspace(5.0, 40.0, 10).tolist()
    origin, tan = (np.array(v) for v in zip(*(cycle.lift(p.k, ell) for ell in ells)))
    h = np.array([_step(ell) for ell in ells])
    pi_sq = _fundamental_forms(functools.partial(sf.riemannian_metric_chart, p),
                               origin + tan @ _T, tan, h)[1]
    vals = np.sqrt(np.maximum(pi_sq, 0.0))
    r = np.array([sf.distance_r(p, ell) for ell in ells])
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
