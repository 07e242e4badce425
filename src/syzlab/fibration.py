"""The flat model torus fibration over the punctured disc.

Points are chart arrays (ell, theta, x1, x2): y = ell + i*theta = -log z
on the universal cover of the base, with ell > 0 near the puncture, and
x = x1 + i*x2 the fiber coordinate.  The fiber over y is C / Lambda(y),
with Lambda(y) spanned by 1 and (k / 2*pi*i) * log z = -(k / 2*pi*i) * y.
theta and theta + 2*pi lie over the same z and give the same lattice, so
no branch of log z is ever chosen.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .numerics import Grid2

TWO_PI = 2.0 * math.pi


def from_ell(x: complex, ell: float, theta: float = 0.0) -> np.ndarray:
    """The chart point (ell, theta, Re x, Im x) over y = ell + i*theta."""
    x = complex(x)
    q = np.array([ell, theta, x.real, x.imag], dtype=float)
    if not (np.isfinite(q).all() and q[0] > 0):
        raise ValidationError("chart point must be finite with ell > 0")
    return q


def lattice_basis(k: int, y: complex) -> tuple[complex, complex]:
    """Generators (1, -(k/2*pi*i) y) of Lambda(y), y = -log z."""
    if k < 1:
        raise ValidationError("k must be a positive integer")
    y = complex(y)
    if not (cmath.isfinite(y) and y.real > 0):
        raise ValidationError("base point must be finite with Re y > 0")
    return (1.0 + 0.0j), -k * y / (2j * math.pi)


def lattice_equal(k: int, p: np.ndarray, q: np.ndarray) -> bool:
    """Whether two chart points over the same z agree modulo Lambda(y), to 1e-10.

    The base points agree when their ell match and their theta differ by a
    multiple of 2*pi.
    """
    tol = 1e-10
    turns = (q[1] - p[1]) / TWO_PI
    if abs(q[0] - p[0]) > tol or abs(turns - round(turns)) > tol:
        return False
    g1, g2 = lattice_basis(k, complex(p[0], p[1]))
    mat = np.array([[g1.real, g2.real], [g1.imag, g2.imag]])
    c = np.linalg.solve(mat, np.subtract(q[2:], p[2:]))
    return bool(np.max(np.abs(c - np.round(c))) <= tol * max(1.0, np.max(np.abs(c))))


@dataclass(frozen=True)
class SectionData:
    """Multivalued section x = h(z) + (a/2*pi*i) log z + (b/(2*pi*i)^2) (log z)^2.

    h is a finite Laurent series given as {power: coefficient}.
    """

    h: dict = field(default_factory=dict)
    a: complex = 0.0
    b: complex = 0.0

    def h_at(self, z):
        """h(z) at a complex z, or elementwise over an array of z."""
        return sum((complex(c) * z ** p for p, c in sorted(self.h.items())), 0j)

    def h_prime_at(self, z):
        return sum((p * complex(c) * z ** (p - 1)
                    for p, c in sorted(self.h.items()) if p != 0), 0j)

    def has_pole(self) -> bool:
        return any(p < 0 and c != 0 for p, c in self.h.items())

    def h0(self) -> complex:
        return complex(self.h.get(0, 0.0))


_W = 2j * math.pi


def section_jet(s: SectionData, y, z):
    """(eta, d eta/dy) of the section at y = -log z, given z = e^-y; elementwise over arrays.
    The log terms of a and b are added where they are non-zero."""
    eta, eta_y = s.h_at(z), -z * s.h_prime_at(z)
    if s.a:
        eta, eta_y = eta - complex(s.a) * y / _W, eta_y - complex(s.a) / _W
    if s.b:
        eta = eta + complex(s.b) * y * y / (_W * _W)
        eta_y = eta_y + 2.0 * complex(s.b) * y / (_W * _W)
    return eta, eta_y


@dataclass(frozen=True)
class CycleSpec:
    """Two-cycle class: the fiber, or a (quasi-)bad cycle C_{m1,m2}."""

    m1: int = 0
    m2: int = 0
    fiber: bool = False

    def __post_init__(self):
        if self.fiber:
            if self.m1 or self.m2:
                raise ValidationError("fiber cycle takes no winding numbers")
        else:
            if self.m1 < 1:
                raise ValidationError("need m1 >= 1")
            if math.gcd(self.m1, abs(self.m2)) != 1 and self.m2 != 0:
                raise ValidationError("require gcd(m1, m2) = 1")
            if self.m2 == 0 and self.m1 != 1:
                raise ValidationError("m2 = 0 requires m1 = 1")

    def grid(self, n: int) -> Grid2:
        """The n x n periodic parameter grid: t1 in [0, 1), t2 over one period."""
        return Grid2(n, 1.0 if self.fiber else TWO_PI * self.m1)

    def lift(self, k: float, ell: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(origin, frame): the cycle at base radius e^{-ell} in the chart, or
        at each of an array of ell (origin (..., 4), frame (..., 4, 2)).

        The chart point (ell, theta, x1, x2) at parameters t = (t1, t2) on
        grid(n) is origin + frame @ t; the 4 x 2 frame holds the constant
        chart tangents d/dt1 and d/dt2 as columns.  t1 runs along Re x.  For
        the fiber t2 runs along the second lattice generator (theta-slope 0,
        x2-slope k*ell/(2*pi)); for C_{m1,m2} it lifts around the base
        circle (theta-slope -1, x2-slope (m2/m1) (k/(2*pi)) ell/(2*pi)).
        """
        ell = np.asarray(ell, dtype=float)
        origin, frame = np.zeros(ell.shape + (4,)), np.zeros(ell.shape + (4, 2))
        origin[..., 0], frame[..., 2, 0] = ell, 1.0
        if not self.fiber:
            frame[..., 1, 1] = -1.0
        frame[..., 3, 1] = self.x2_slope(k, ell)
        return origin, frame

    def x2_slope(self, k: float, ell: np.ndarray) -> np.ndarray:
        """The x2-slope of lift's t2 tangent, frame[..., 3, 1], at an array of ell."""
        if self.fiber:
            return k * ell / TWO_PI
        return (self.m2 / self.m1) * (k / TWO_PI) * ell / TWO_PI

    def lift_grid(self, k: float, ell: float, n: int):
        """(q, t_a, t_b): the lift's chart points at every node of grid(n),
        shape (n, n, 4) with t1 along the first axis, and its tangents."""
        grid = self.grid(n)
        origin, frame = self.lift(k, ell)
        t = np.empty((n, n, 2))
        t[..., 0], t[..., 1] = grid.nodes1()[:, None], grid.nodes2()
        # in place: origin + (t @ frame.T) would hold a second (n, n, 4) array
        q = t @ frame.T
        q += origin
        return q, frame[:, 0], frame[:, 1]


FIBER = CycleSpec(fiber=True)
