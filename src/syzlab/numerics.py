"""Deterministic quadrature, decay fitting, root finding.

Everything here is plain numerics with fixed evaluation order so repeated
runs are bitwise reproducible regardless of how many worker threads the
caller thinks it has.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError


@dataclass(frozen=True)
class Grid2:
    """Uniform periodic n x n tensor grid on [0,1) x [0,period2).

    Nodes omit the duplicated endpoint and carry equal weights (the
    rectangle rule), which is spectrally accurate for smooth periodic
    integrands and exact for trigonometric polynomials of degree < n.
    """

    n: int
    period2: float

    def __post_init__(self):
        if self.n < 4:
            raise ValidationError("grid needs at least 4 nodes per direction")

    def nodes1(self) -> np.ndarray:
        return np.arange(self.n) / self.n

    def nodes2(self) -> np.ndarray:
        return self.period2 * np.arange(self.n) / self.n


def pairwise_sum(values: np.ndarray):
    """Fixed-order pairwise reduction, independent of any chunking upstream.

    Repeatedly adds adjacent pairs of the row-major flattened array, so the
    summation tree depends only on the length.
    """
    v = np.asarray(values).ravel()
    if v.size == 0:
        return 0.0
    while v.size > 1:
        if v.size % 2:
            v = np.append(v[:-2], v[-2] + v[-1])
        v = v[0::2] + v[1::2]
    return v[0].item()


def quad_grid(values: np.ndarray, grid: Grid2):
    """Integrate sampled values over the grid with a deterministic reduction."""
    values = np.asarray(values)
    if values.shape != (grid.n, grid.n):
        raise ValidationError("values shape must match grid (n, n)")
    if not np.all(np.isfinite(np.abs(values))):
        raise NumericalError("non-finite integrand samples")
    return pairwise_sum(values * ((1.0 / grid.n) * (grid.period2 / grid.n)))


def quad_periodic(f, grid: Grid2):
    """Integrate f(t1, t2) over the grid.  f may return complex values."""
    t1 = grid.nodes1()
    t2 = grid.nodes2()
    vals = np.array([[f(a, b) for b in t2] for a in t1])
    return quad_grid(vals, grid)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares decay fit summary."""

    model: str
    exponent: float
    r_squared: float
    n_samples: int


def fit_decay(r: np.ndarray, values: np.ndarray, model: str = "power") -> DecayFit:
    """Fit values(r) ~ C * r^exponent, or C * exp(exponent * r^(2/3)).

    The smallest fifth of the samples (keeping at least 3) is discarded so
    the fit sees the asymptotic regime rather than the near region.  The
    values are computed samples, so a non-positive one (an underflow) is a
    NumericalError, not a bad input, and so is a NaN or infinity among the
    fitted coordinates, read off the two sums that the centring takes.
    """
    r = np.asarray(r, dtype=float)
    values = np.asarray(values, dtype=float)
    if r.ndim != 1 or r.shape != values.shape:
        raise ValidationError("r and values must be 1-d arrays of equal length")
    if r.size < 3:
        raise ValidationError("need at least 3 samples")
    # <= rather than a negated >: a NaN in r passes here and fails as non-finite below
    if (r[1:] <= r[:-1]).any():
        raise ValidationError("r must be strictly increasing")
    if (values <= 0).any():
        raise NumericalError("decay samples must be positive for a log fit")

    n_drop = min(int(0.2 * r.size), r.size - 3)
    r = r[n_drop:]
    values = values[n_drop:]

    if model == "power":
        xs = np.log(r)
    elif model == "stretched_exp":
        xs = r ** (2.0 / 3.0)
    else:
        raise ValidationError(f"unknown decay model {model!r}")
    ys = np.log(values)
    # a sum is finite exactly when its terms are: |log| <= 745, r^(2/3) <= 3.3e205, inf - inf = NaN
    sx, sy = xs.sum(), ys.sum()
    if not (math.isfinite(sx) and math.isfinite(sy)):
        raise NumericalError("non-finite values in decay fit")

    # the least-squares line through the centred samples; sum()/size has np.mean's bits
    dx = xs - sx / xs.size
    dy = ys - sy / ys.size
    slope = (dx @ dy) / (dx @ dx)
    resid = dy - slope * dx
    ss_tot = dy @ dy
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - (resid @ resid) / ss_tot
    return DecayFit(model=model, exponent=float(slope),
                    r_squared=float(r2), n_samples=int(r.size))


def find_root(f, a: float, b: float) -> float:
    """Root of f on a sign-changing bracket [a, b].

    Affine functions are detected from three samples and solved exactly;
    otherwise at most 200 bisection steps localize the root to 1e-10
    relative and a secant pass polishes.
    """
    if not (b > a):
        raise ValidationError("bracket must satisfy a < b")
    fa, fb = f(a), f(b)
    if not (math.isfinite(fa) and math.isfinite(fb)):
        raise NumericalError("non-finite bracket values")
    if fa == 0.0:
        return float(a)
    if fb == 0.0:
        return float(b)
    if fa * fb > 0:
        raise ValidationError("bracket does not change sign")

    mid = 0.5 * (a + b)
    fm = f(mid)
    scale = max(abs(fa), abs(fb), 1e-300)
    if abs(fm - 0.5 * (fa + fb)) <= 1e-12 * scale:
        # affine: interpolate exactly
        return float(a - fa * (b - a) / (fb - fa))

    lo, hi, flo = a, b, fa
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if not math.isfinite(fm):
            raise NumericalError("non-finite value during bisection")
        if fm == 0.0:
            return float(mid)
        if flo * fm < 0:
            hi = mid
        else:
            lo, flo = mid, fm
        if hi - lo <= 1e-10 * max(abs(lo), abs(hi), 1.0):
            break
    # secant polish inside the final bracket
    x0, x1 = lo, hi
    f0, f1 = f(x0), f(x1)
    for _ in range(60):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not (lo <= x2 <= hi):
            break
        x0, f0, x1, f1 = x1, f1, x2, f(x2)
        if abs(x1 - x0) <= 1e-10 * max(abs(x1), 1.0):
            break
    return float(x1)
