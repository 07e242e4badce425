"""The flat model torus fibration over the punctured disc.

Fibers over z are C / Lambda(z) with Lambda(z) spanned by 1 and
(k / 2*pi*i) * log z.  Branch choice enters only through log z; branch 0
uses arg z in [0, 2*pi), which makes the second generator have positive
imaginary part.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .numerics import Grid2

TWO_PI = 2.0 * math.pi


def _check_z(z: complex) -> complex:
    z = complex(z)
    if not (0.0 < abs(z) < 1.0):
        raise ValidationError("base point must satisfy 0 < |z| < 1")
    return z


def log_branch(z: complex, branch: int = 0) -> complex:
    """log z with arg z taken in [0, 2*pi) plus 2*pi*branch."""
    z = _check_z(z)
    arg = cmath.phase(z) % TWO_PI
    return complex(math.log(abs(z)), arg + TWO_PI * branch)


@dataclass(frozen=True)
class FiberPoint:
    """A point x in the fiber over z, on the chosen log branch."""

    x: complex
    z: complex
    branch: int = 0

    def __post_init__(self):
        _check_z(self.z)

    @property
    def y(self) -> complex:
        """y = -log z; Re y = ell > 0 near the puncture."""
        return -log_branch(self.z, self.branch)

    @property
    def ell(self) -> float:
        return self.y.real

    @property
    def theta(self) -> float:
        return self.y.imag


def from_ell(x: complex, ell: float, theta: float = 0.0) -> FiberPoint:
    """FiberPoint with y = ell + i*theta."""
    if ell <= 0:
        raise ValidationError("ell must be positive")
    y = complex(ell, theta)
    z = cmath.exp(-y)
    arg = cmath.phase(z) % TWO_PI
    branch = round(((-theta) - arg) / TWO_PI)
    return FiberPoint(x=x, z=z, branch=branch)


def lattice_basis(k: int, z: complex, branch: int = 0) -> tuple[complex, complex]:
    """Generators (1, (k/2*pi*i) log z) of Lambda(z)."""
    if k < 1:
        raise ValidationError("k must be a positive integer")
    g2 = k * log_branch(z, branch) / (2j * math.pi)
    return (1.0 + 0.0j), g2


def lattice_equal(k: int, p: FiberPoint, q: FiberPoint, tol: float = 1e-10) -> bool:
    """Whether two points over the same z agree modulo Lambda(z)."""
    if abs(p.z - q.z) > tol:
        return False
    g1, g2 = lattice_basis(k, p.z, p.branch)
    mat = np.array([[g1.real, g2.real], [g1.imag, g2.imag]])
    d = q.x - p.x
    c = np.linalg.solve(mat, np.array([d.real, d.imag]))
    return bool(np.max(np.abs(c - np.round(c))) <= tol * max(1.0, np.max(np.abs(c))))


@dataclass(frozen=True)
class SectionData:
    """Multivalued section x = h(z) + (a/2*pi*i) log z + (b/(2*pi*i)^2) (log z)^2.

    h is a finite Laurent series given as {power: coefficient}.
    """

    h: dict = field(default_factory=dict)
    a: complex = 0.0
    b: complex = 0.0

    def h_at(self, z: complex) -> complex:
        return sum((complex(c) * complex(z) ** p for p, c in sorted(self.h.items())), 0j)

    def h_prime_at(self, z: complex) -> complex:
        return sum((p * complex(c) * complex(z) ** (p - 1)
                    for p, c in sorted(self.h.items()) if p != 0), 0j)

    def has_pole(self) -> bool:
        return any(p < 0 and c != 0 for p, c in self.h.items())

    def h0(self) -> complex:
        return complex(self.h.get(0, 0.0))


def section_eval_y(s: SectionData, y: complex) -> complex:
    """Section value written in the universal-cover coordinate y = -log z."""
    if y.real <= 0:
        raise ValidationError("need Re y > 0")
    w = 2j * math.pi
    return s.h_at(cmath.exp(-y)) - complex(s.a) * y / w + complex(s.b) * y * y / (w * w)


def section_dy(s: SectionData, y: complex) -> complex:
    """d/dy of the section along the universal cover."""
    z = cmath.exp(-y)
    w = 2j * math.pi
    return -z * s.h_prime_at(z) - complex(s.a) / w + 2.0 * complex(s.b) * y / (w * w)


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
        if self.fiber:
            return Grid2(n, n)
        return Grid2(n, n, box2=(0.0, TWO_PI * self.m1))

    def lift(self, k: int, ell: float, offset: float = 0.0):
        """(point, t_a, t_b): the cycle at base radius e^{-ell} in the chart.

        point(t1, t2) is the chart point (ell, theta, x1, x2) at parameters
        (t1, t2) on grid(n), with Im x shifted by offset; t_a and t_b are its
        constant chart tangents d/dt1 and d/dt2.  t1 runs along Re x.  For
        the fiber t2 runs along the second lattice generator (theta-slope 0,
        x2-slope k*ell/(2*pi)); for C_{m1,m2} it lifts around the base
        circle (theta-slope -1, x2-slope (m2/m1) (k/(2*pi)) ell/(2*pi)).
        """
        if self.fiber:
            th, x2 = 0.0, k * ell / TWO_PI
        else:
            th, x2 = -1.0, (self.m2 / self.m1) * (k / TWO_PI) * ell / TWO_PI

        def point(t1: float, t2: float) -> np.ndarray:
            return np.array([ell, th * t2, t1, x2 * t2 + offset])

        return point, np.array([0.0, 0.0, 1.0, 0.0]), np.array([0.0, th, 0.0, x2])


FIBER = CycleSpec(fiber=True)
