import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from syzlab import cli, glue
from syzlab import semiflat as sfm
from syzlab.errors import NumericalError, ValidationError


def make_cfg(r=0.1, s=0.02, v0c=1.0, vomc=0.2, kappa=None, **kw):
    params = sfm.ModelParams(k=1, eps=1.0, kappa=kappa or {})
    base = dict(params=params, r=r, s=s, rho_min=0.01, rho_max=0.9,
                v0c=v0c, vomc=vomc)
    base.update(kw)
    return glue.GlueConfig(**base)


ROOT_CFG = dict(r=0.2, s=0.1, v0c=40.0, vomc=62.0)

# configurations for the array-against-loop references: (cfg kwargs, alpha, t)
REF_CASES = [
    (dict(), 2.0, 3.0),
    (dict(ROOT_CFG), 0.8693, 5.0),
    (dict(ROOT_CFG, rho_min=1e-4), 1.7, 12.0),
    (dict(r=0.05, s=0.01, v0c=3.0, vomc=2.0), 0.3, 0.5),
    (dict(r=0.15, s=0.05, v0c=50.0, vomc=75.0, rho_max=0.95), 4.0, 40.0),
]


def smoothstep_ref(rho, lo, hi):
    """Scalar smoothstep from 1 at rho <= lo to 0 at rho >= hi, with
    its first two rho-derivatives."""
    big, b_lo, b_hi = -math.log(rho), -math.log(lo), -math.log(hi)
    denom = b_lo - b_hi
    lam = (big - b_hi) / denom
    if lam >= 1.0:
        return 1.0, 0.0, 0.0
    if lam <= 0.0:
        return 0.0, 0.0, 0.0
    val = lam ** 3 * (10.0 - 15.0 * lam + 6.0 * lam ** 2)
    d1 = 30.0 * lam ** 2 * (1.0 - lam) ** 2
    d2 = 60.0 * lam * (1.0 - 3.0 * lam + 2.0 * lam ** 2)
    dlam = -1.0 / (denom * rho)
    ddlam = 1.0 / (denom * rho ** 2)
    return val, d1 * dlam, d2 * dlam ** 2 + d1 * ddlam


def u_zz_ref(cfg, rho):
    p = cfg.params
    return p.k * (-math.log(rho)) / (2.0 * math.pi * p.eps * rho ** 2)


def q_reference(cfg, alpha, t, rho):
    """Per-point reference for glue.q_coefficient with kappa = 1."""
    p, r, s = cfg.params, cfg.r, cfg.s
    if rho <= r:
        return (alpha - 1.0) * u_zz_ref(cfg, rho)
    if rho >= r + 3.0 * s:
        beta = 0.0
    elif rho < r + s:
        beta = 1.0 - smoothstep_ref(rho, r, r + s)[0]
    else:
        beta = smoothstep_ref(rho, r + 2.0 * s, r + 3.0 * s)[0]
    psi, psi_p, psi_pp = smoothstep_ref(rho, r + s, r + 2.0 * s)
    if psi == 0.0:
        return t * beta
    c = p.k / (math.pi * p.eps)
    l1, l2, ell = -math.log(r), -math.log(r + 3.0 * s), -math.log(rho)
    b = c / 3.0 * (l1 ** 3 - l2 ** 3) / (l1 - l2)
    a = c / 3.0 * l1 ** 3 - b * l1
    du = c / 3.0 * ell ** 3 - (a + b * ell)
    dup = -c * ell ** 2 / rho + b / rho
    bracket = (0.25 * (psi_pp + psi_p / rho) * du + psi * u_zz_ref(cfg, rho)
               + 0.5 * psi_p * dup)
    return t * beta + (alpha - 1.0) * bracket


def q_presplit(cfg, alpha, t, rho):
    """glue.q_coefficient as written before its (alpha, t)-free split."""
    x = np.atleast_1d(np.asarray(rho, dtype=float))
    cut = cfg.cutoffs
    uzz = glue.u_zz(cfg.params, x)
    q = t * cut._beta(x, -np.log(x))
    psi, psi_p, psi_pp = cut._psi(x, -np.log(x))
    glued = (x > cfg.r) & (psi != 0.0)
    if np.any(glued):
        du, dup = glue._match_defect(cfg, x, -np.log(x))
        psi_zz = 0.25 * (psi_pp + psi_p / x)
        bracket = psi_zz * du + psi * uzz + 0.5 * psi_p * dup
        q = np.where(glued, q + (alpha - 1.0) * bracket, q)
    return np.where(x <= cfg.r, (alpha - 1.0) * uzz, q)


def mass_integral_loop(cfg, alpha, t, n=64):
    """Per-node reference for glue.mass_integral."""
    p = cfg.params
    nodes, weights = np.polynomial.legendre.leggauss(n)
    bounds = sorted({cfg.r, cfg.r + cfg.s, cfg.r + 2.0 * cfg.s,
                     cfg.r + 3.0 * cfg.s, cfg.rho_max})
    total = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        l_lo, l_hi = -math.log(hi), -math.log(lo)
        mid = 0.5 * (l_lo + l_hi)
        half = 0.5 * (l_hi - l_lo)
        for xnode, wt in zip(nodes, weights):
            ell = mid + half * float(xnode)
            rho = math.exp(-ell)
            qc = q_reference(cfg, alpha, t, rho)
            w = sfm.w_factor(p, ell)
            c_val = 4.0 * (1.0 - alpha) + 4.0 * rho ** 2 * w * p.eps * qc
            total += float(wt) * half * c_val * p.k * ell
    return total + cfg.v0c - alpha * cfg.vomc


# pi to 40 significant digits, for the exact block entries and eigenvalue
PI_40 = Decimal("3.141592653589793238462643383279502884197")


def exact_min_eig(c, d, gam2, x):
    """Smallest eigenvalue of (1/4)[[c, -c conj(Gamma)], [-c Gamma,
    d + c|Gamma|^2]] + diag(0, x), |Gamma|^2 = gam2, for Decimal inputs,
    in 40-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 40
        a, dd = c / 4, (d + c * gam2) / 4 + x
        half_gap = ((a - dd) ** 2 / 4 + c ** 2 * gam2 / 16).sqrt()
        return float((a + dd) / 2 - half_gap)


def exact_c_d(p, ell):
    """(c, d) of the positivity block at theta = 0, from the float ell, in
    40-digit decimals; neither reads b0 or the fiber height."""
    with localcontext() as ctx:
        ctx.prec = 40
        ell = Decimal(ell)
        rho = (-ell).exp()
        kap_re, kap_im = Decimal(0 if p.kappa else 1), Decimal(0)
        for power, coeff in p.kappa.items():
            coeff = complex(coeff)
            kap_re += Decimal(coeff.real) * rho ** power
            kap_im += Decimal(coeff.imag) * rho ** power
        w = 2 * PI_40 / (p.k * ell)
        return w * Decimal(p.eps), 2 * (kap_re ** 2 + kap_im ** 2) / (Decimal(p.eps) * w)


def exact_margin(p, ell, x):
    """min(c/4, d/4 + x), the smaller entry of the diagonal (x, y) block at the
    image with Gamma = 0, from the floats ell and x, in 40-digit decimals."""
    c, d = exact_c_d(p, ell)
    with localcontext() as ctx:
        ctx.prec = 40
        return float(min(c / 4, d / 4 + Decimal(x)))


def rescaled_margin(cfg, alpha, window, n=200):
    """positivity_scan's margin on a window below r, where the glued block
    is the semi-flat one with d scaled by alpha (X = (alpha - 1) d/4 in
    exact arithmetic): min(c/4, alpha d/4) in 40-digit decimals, which
    cancels nothing, so it resolves a margin of order alpha = 1e-300."""
    lo, hi = window
    assert hi <= cfg.r
    worst = math.inf
    for rho in np.geomspace(lo * 1.0001, hi * 0.9999, n).tolist():
        c, d = exact_c_d(cfg.params, -math.log(rho))
        with localcontext() as ctx:
            ctx.prec = 40
            worst = min(worst, float(min(c / 4, Decimal(alpha) * d / 4)))
    return worst


_LOG_GRID = glue._log_grid


def scan_on(cfg, alpha, t, window=None):
    """positivity_scan with its 200 radii taken from 1.0001 lo to 0.9999 hi of window =
    (lo, hi), as it takes them on its annulus: the minimum over one region, which the
    annulus' minimum (past r + 3s on these configs) hides.  None scans the annulus."""
    if window is None:
        return glue.positivity_scan(cfg, alpha, t)
    lo, hi = window
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(glue, "_log_grid", lambda *_: _LOG_GRID(lo * 1.0001, hi * 0.9999, 200))
        return glue.positivity_scan(cfg, alpha, t)


def min_eig_block(c, d, g_r, g_i, x):
    """(block, scale): the block of exact_min_eig elementwise, shape (..., 2, 2), with the entries
    rounded as semiflat._form_entries rounds them (alpha = 1), and the block's Frobenius norm
    with its yy entry replaced by (d + c|Gamma|^2)/4 + |x|, the size of the terms it is summed
    from: where x cancels them, the rounded block's own norm falls far below their rounding
    error."""
    c, d, g_r, g_i, x = np.broadcast_arrays(c, d, g_r, g_i, x)
    e01 = d + c * (g_r * g_r + g_i * g_i)
    block = np.empty(c.shape + (2, 2), dtype=complex)
    block[..., 0, 0] = 0.25 * c
    block[..., 1, 0] = -0.25 * (c * g_r + 1j * (c * g_i))
    block[..., 0, 1] = np.conj(block[..., 1, 0])
    block[..., 1, 1] = 0.25 * e01 + x
    scale = np.sqrt(block[..., 0, 0].real ** 2 + 2.0 * np.abs(block[..., 1, 0]) ** 2
                    + (0.25 * e01 + np.abs(x)) ** 2)
    return block, scale


def glued_x(cfg, alpha, t, rho):
    """X = (q - psi (alpha - 1) u_zz/2) rho^2 at one radius from the scalar
    references (the array kernels where kappa != 1)."""
    p = cfg.params
    qc = q_reference(cfg, alpha, t, rho) if p.kappa_is_one() else \
        glue.q_coefficient(cfg, alpha, t, np.array([rho])).item()
    psi = smoothstep_ref(rho, cfg.r + cfg.s, cfg.r + 2.0 * cfg.s)[0]
    return (qc - 0.5 * psi * (alpha - 1.0) * u_zz_ref(cfg, rho)) * rho ** 2


def positivity_oracle(cfg, alpha, t, n=200, window=None):
    """Per-radius reference for glue.positivity_scan: X from the scalar
    references, the diagonal block's smaller entry from exact_margin."""
    lo, hi = window if window is not None else (cfg.rho_min, cfg.rho_max)
    return min(exact_margin(cfg.params, -math.log(rho), glued_x(cfg, alpha, t, rho))
               for rho in np.geomspace(lo * 1.0001, hi * 0.9999, n).tolist())


def readme_f(cfg, alpha):
    """Scale-equation function f(alpha) = I(alpha, t(alpha)) with t' = 1."""
    return glue.mass_integral(cfg, alpha, glue.required_t(cfg, alpha, 1.0))


class TestConfig:
    def test_rho_min_must_precede_r(self):
        with pytest.raises(ValidationError):
            make_cfg(rho_min=0.5)

    def test_annulus_must_fit(self):
        with pytest.raises(ValidationError):
            make_cfg(r=0.3, s=0.25)

    def test_reference_alpha_must_be_one(self):
        p = sfm.ModelParams(k=1, alpha=2.0)
        with pytest.raises(ValidationError):
            glue.GlueConfig(params=p, r=0.1, s=0.02, rho_min=0.01,
                            rho_max=0.9, v0c=1.0, vomc=0.2)

    def test_volumes_positive(self):
        with pytest.raises(ValidationError):
            make_cfg(vomc=-1.0)

    @pytest.mark.parametrize("s", [1e-300, 1e-17, 2e-17])
    def test_unresolvable_transition_width_rejected(self, s):
        # the cutoffs divide by differences of -log over r, r+s, r+2s, r+3s
        with pytest.raises(ValidationError, match="s is too small"):
            make_cfg(r=0.1, s=s)

    def test_coinciding_logarithms_rejected(self):
        # four distinct edges whose -log values still collide at r = 0.1
        r, s = 0.1, 2e-17
        edges = [r, r + s, r + 2.0 * s, r + 3.0 * s]
        assert len(set(edges)) == 4
        assert len({float(-np.log(e)) for e in edges}) < 4
        with pytest.raises(ValidationError, match="s is too small"):
            make_cfg(r=r, s=s)

    def test_small_resolvable_transition_width_accepted(self):
        assert make_cfg(r=0.1, s=1e-12).cutoffs.s == 1e-12

    @pytest.mark.parametrize("field", ["r", "s", "rho_min", "rho_max", "v0c",
                                       "vomc"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, bad):
        with pytest.raises(ValidationError, match="finite"):
            make_cfg(**{field: bad})

    def test_non_finite_params_rejected(self):
        # ModelParams itself refuses them, before any GlueConfig exists
        with pytest.raises(ValidationError, match="finite"):
            p = sfm.ModelParams(k=1, eps=math.inf)
            glue.GlueConfig(params=p, r=0.1, s=0.02, rho_min=0.01,
                            rho_max=0.9, v0c=1.0, vomc=0.2)


class TestPotential:
    def test_closed_form_value(self):
        # u(1/e) = 1/(3 pi) for k = 1, eps = 1
        cfg = make_cfg()
        assert glue.potential_u(cfg.params, math.exp(-1.0)) == pytest.approx(
            1.0 / (3.0 * math.pi), rel=1e-14)

    def test_rho_domain(self):
        cfg = make_cfg()
        for rho in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(ValidationError):
                glue.potential_u(cfg.params, rho)

    def test_u_positive_and_growing_inward(self):
        cfg = make_cfg()
        rhos = np.geomspace(0.02, 0.8, 12)
        vals = [glue.potential_u(cfg.params, r) for r in rhos]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_u_prime_matches_fd(self):
        cfg = make_cfg()
        for rho in (0.05, 0.15, 0.4):
            h = 1e-4 * rho
            fd = (glue.potential_u(cfg.params, rho + h)
                  - glue.potential_u(cfg.params, rho - h)) / (2.0 * h)
            assert glue._u_prime(cfg.params, rho, -np.log(rho)) == pytest.approx(fd, rel=1e-7)

    def test_u_zz_matches_radial_laplacian(self):
        # u_zzbar = (u'' + u'/rho) / 4 for radial u
        cfg = make_cfg()
        for rho in (0.05, 0.15, 0.4):
            h = 1e-3 * rho
            u = [glue.potential_u(cfg.params, rho + j * h) for j in (-2, -1, 0, 1, 2)]
            upp = (-u[0] + 16 * u[1] - 30 * u[2] + 16 * u[3] - u[4]) / (12 * h * h)
            up = (u[0] - 8 * u[1] + 8 * u[3] - u[4]) / (12 * h)
            lap = 0.25 * (upp + up / rho)
            assert glue.u_zz(cfg.params, rho) == pytest.approx(lap, rel=1e-8)

    def test_sup_attained_at_inner_radius(self):
        cfg = make_cfg()
        sup = cfg.sup_u_zz
        for rho in np.linspace(cfg.r, cfg.r + 3 * cfg.s, 50):
            assert glue.u_zz(cfg.params, rho) <= sup * (1 + 1e-12)

    def test_ode_requires_opt_in(self):
        cfg = make_cfg(kappa={0: 1.0, 1: 0.5})
        with pytest.raises(ValidationError):
            glue.potential_u(cfg.params, 0.3)


class TestCutoffs:
    def test_psi_plateaus(self):
        cut = glue.Cutoffs(r=0.1, s=0.02)
        assert cut._psi(0.11, -np.log(0.11)) == (1.0, 0.0, 0.0)
        assert cut._psi(0.15, -np.log(0.15)) == (0.0, 0.0, 0.0)
        mid = cut._psi(0.13, -np.log(0.13))[0]
        assert 0.0 < mid < 1.0

    def test_beta_support_and_plateau(self):
        cut = glue.Cutoffs(r=0.1, s=0.02)
        assert cut._beta(0.1, -np.log(0.1)) == 0.0
        assert cut._beta(0.161, -np.log(0.161)) == 0.0
        assert cut._beta(0.12, -np.log(0.12)) == 1.0
        assert cut._beta(0.14, -np.log(0.14)) == 1.0
        assert 0.0 < cut._beta(0.11, -np.log(0.11)) < 1.0
        assert 0.0 < cut._beta(0.15, -np.log(0.15)) < 1.0


def step_oracle(rho, lo, hi):
    """glue.Cutoffs._step as written before one cutoff pass per radius array:
    smoothstep from 1 at rho <= lo to 0 at rho >= hi, with d/drho, d2/drho2."""
    big = -np.log(rho)
    b_lo = -np.log(lo)
    b_hi = -np.log(hi)
    denom = b_lo - b_hi
    lam = np.clip((big - b_hi) / denom, 0.0, 1.0)
    val = lam ** 3 * (10.0 - 15.0 * lam + 6.0 * lam ** 2)
    d1 = 30.0 * lam ** 2 * (1.0 - lam) ** 2
    d2 = 60.0 * lam * (1.0 - 3.0 * lam + 2.0 * lam ** 2)
    dlam = -1.0 / (denom * rho)
    ddlam = 1.0 / (denom * rho ** 2)
    return val, d1 * dlam, d2 * dlam ** 2 + d1 * ddlam


def psi_oracle(r, s, rho):
    return step_oracle(rho, r + s, r + 2.0 * s)


def beta_oracle(r, s, rho):
    up = 1.0 - step_oracle(rho, r, r + s)[0]
    down = step_oracle(rho, r + 2.0 * s, r + 3.0 * s)[0]
    return np.where(rho < r + s, up, down)


def margin_oracle(cfg, alpha, t, n=200, window=None):
    """glue.positivity_scan's margin as written before one pass per radius
    array, on the cutoff oracles, without its validation and rounding bound;
    cfg has b0 = 0."""
    p, r, s = cfg.params, cfg.r, cfg.s
    lo, hi = window if window is not None else (cfg.rho_min, cfg.rho_max)
    rho = np.geomspace(lo * 1.0001, hi * 0.9999, n)
    uzz = glue.u_zz(p, rho)
    bracket = np.zeros_like(rho)
    psi, psi_p, psi_pp = psi_oracle(r, s, rho)
    glued = (rho > r) & (psi != 0.0)
    if np.any(glued):
        a, b = glue.harmonic_match(cfg)
        du = glue.potential_u(p, rho) - (a + b * -np.log(rho))
        dup = glue._u_prime(p, rho, -np.log(rho)) + b / rho
        psi_zz = 0.25 * (psi_pp + psi_p / rho)
        bracket = np.where(glued, psi_zz * du + psi * uzz + 0.5 * psi_p * dup, 0.0)
    qc = t * beta_oracle(r, s, rho) + (alpha - 1.0) * np.where(rho <= r, uzz, bracket)
    psi = psi_oracle(r, s, rho)[0]
    x = (qc - 0.5 * psi * (alpha - 1.0) * glue.u_zz(p, rho)) * rho ** 2
    c, d = sfm._form_entries(p, -np.log(rho), 0.0, 0.0, np.exp)[3:]
    return float(np.min(np.minimum(0.25 * c, 0.25 * d + x)))


class TestCutoffBits:
    """One cutoff pass per radius array keeps every bit of the old cutoffs,
    evaluated separately for psi and for each side of beta."""

    @staticmethod
    def _radii(r, s):
        edges = [r, r + s, r + 2.0 * s, r + 3.0 * s]
        return edges, np.concatenate([np.geomspace(0.9 * r, 1.1 * edges[3], 997),
                                      np.array(edges)])

    @pytest.mark.parametrize("r,s", [(0.1, 0.02), (0.2, 0.1), (0.05, 0.01),
                                     (0.15, 0.05), (0.3, 1e-3)])
    def test_psi_and_beta_bitwise(self, r, s):
        edges, rho = self._radii(r, s)
        # the grid straddles each edge, and the edges themselves are included
        assert all(rho.min() < e < rho[:-4].max() for e in edges)
        cut = glue.Cutoffs(r, s)
        for got, want in zip((*cut._psi(rho, -np.log(rho)), cut._beta(rho, -np.log(rho))),
                             (*psi_oracle(r, s, rho), beta_oracle(r, s, rho))):
            assert got.tobytes() == want.tobytes()
        at_edges = np.array(edges)
        assert cut._beta(at_edges, -np.log(at_edges)).tolist() == [0.0, 1.0, 1.0, 0.0]
        assert cut._psi(at_edges, -np.log(at_edges))[0].tolist() == [1.0, 1.0, 0.0, 0.0]

    def test_positivity_margin_bitwise(self):
        for kw, alpha, _ in REF_CASES:
            cfg = make_cfg(**kw)
            t = 1.2 * glue.required_t(cfg, alpha, 0.0) + 1.0
            edges = self._radii(cfg.r, cfg.s)[0]
            for window in (None, (cfg.rho_min, edges[1]), (edges[0], edges[3]),
                           (edges[1], edges[2]), (edges[2], cfg.rho_max)):
                got = scan_on(cfg, alpha, t, window)
                assert got == margin_oracle(cfg, alpha, t, window=window)

    @given(lo=st.floats(5e-324, 1.0, exclude_max=True),
           hi=st.floats(5e-324, 1.0, exclude_max=True),
           n=st.sampled_from([1, 2, 7, 200]))
    @example(lo=5e-324, hi=0.9 * 0.9999, n=200)
    @settings(max_examples=300, deadline=None)
    def test_log_grid_is_geomspace_bitwise(self, lo, hi, n):
        # the scan's radii; an annulus narrower than 1e-4 reverses them
        assert glue._log_grid(lo, hi, n).tobytes() == np.geomspace(lo, hi, n).tobytes()

    def test_positivity_margin_bitwise_with_kappa(self):
        # kappa != 1 has no potential, so only windows without the glued
        # bracket: below r (u_zz carries |kappa|^2) and past r+2s (beta only)
        for kappa in ({0: 1.0, 1: 0.5}, {0: 1.0, 2: 0.3}, {0: 1.0, 1: -0.4j}):
            cfg = make_cfg(kappa=kappa)
            for alpha in (0.3, 1.5, 4.0):
                t = 1.2 * glue.required_t(cfg, alpha, 0.0) + 1.0
                for window in ((cfg.rho_min, cfg.r), (cfg.r + 2.0 * cfg.s, cfg.rho_max)):
                    got = scan_on(cfg, alpha, t, window)
                    assert got == margin_oracle(cfg, alpha, t, window=window)


class TestHarmonicMatch:
    def test_endpoints_interpolated(self):
        cfg = make_cfg()
        a, b = glue.harmonic_match(cfg)
        for rho in (cfg.r, cfg.r + 3.0 * cfg.s):
            v = a + b * (-math.log(rho))
            assert v == pytest.approx(glue.potential_u(cfg.params, rho), rel=1e-13)

    def test_slope_positive(self):
        # u increases toward the puncture, so the matching slope does too
        _, b = glue.harmonic_match(make_cfg())
        assert b > 0


class TestArrayKernels:
    def test_array_matches_scalar_at_breakpoints(self):
        for kw, alpha, t in REF_CASES:
            cfg = make_cfg(**kw)
            rho = np.array([cfg.rho_min, cfg.r, cfg.r + cfg.s,
                            cfg.r + 2.0 * cfg.s, cfg.r + 3.0 * cfg.s,
                            cfg.rho_max])
            arr = glue.q_coefficient(cfg, alpha, t, rho)
            assert arr.shape == rho.shape
            one = [glue.q_coefficient(cfg, alpha, t, float(x)) for x in rho]
            np.testing.assert_allclose(arr, one, rtol=1e-14, atol=0.0)
            ref = [q_reference(cfg, alpha, t, float(x)) for x in rho]
            np.testing.assert_allclose(arr, ref, rtol=1e-12, atol=0.0)

    def test_array_matches_reference_across_annulus(self):
        for kw, alpha, t in REF_CASES:
            cfg = make_cfg(**kw)
            rho = np.geomspace(cfg.rho_min, cfg.rho_max, 500)
            ref = np.array([q_reference(cfg, alpha, t, float(x)) for x in rho])
            np.testing.assert_allclose(glue.q_coefficient(cfg, alpha, t, rho),
                                       ref, rtol=1e-12,
                                       atol=1e-13 * np.max(np.abs(ref)))

    def test_array_keeps_shape(self):
        cfg = make_cfg()
        rho = np.geomspace(0.02, 0.8, 12).reshape(3, 4)
        assert glue.q_coefficient(cfg, 2.0, 3.0, rho).shape == (3, 4)
        assert glue.u_zz(cfg.params, rho).shape == (3, 4)
        assert all(v.shape == (3, 4) for v in cfg.cutoffs._psi(rho, -np.log(rho)))

    @pytest.mark.parametrize("outside", [0.005, 0.95, math.nan])
    def test_any_out_of_annulus_element_rejected(self, outside):
        cfg = make_cfg()
        rho = np.array([0.05, 0.12, outside, 0.5])
        with pytest.raises(ValidationError, match="annulus"):
            glue.q_coefficient(cfg, 2.0, 3.0, rho)

    def test_kappa_kept_in_u_zz(self):
        cfg = make_cfg(kappa={0: 1.0, 1: 0.5})
        ref = make_cfg()
        rho = np.array([0.05, 0.3])
        np.testing.assert_allclose(glue.u_zz(cfg.params, rho),
                                   (1.0 + 0.5 * rho) ** 2 * glue.u_zz(ref.params, rho),
                                   rtol=1e-14)

    def test_kappa_outside_psi_region_still_evaluates(self):
        # only the psi region needs the potential itself
        cfg = make_cfg(kappa={0: 1.0, 1: 0.5})
        rho = np.array([0.05, 0.145, 0.5])
        q = glue.q_coefficient(cfg, 2.0, 3.0, rho)
        assert q[0] == pytest.approx(glue.u_zz(cfg.params, 0.05), rel=1e-14)
        assert q[2] == 0.0
        with pytest.raises(ValidationError, match="non-trivial kappa"):
            glue.q_coefficient(cfg, 2.0, 3.0, np.array([0.05, 0.13]))

    def test_mass_integral_matches_loop(self):
        for kw, alpha, t in REF_CASES:
            cfg = make_cfg(**kw)
            for n in (16, 64, 128):
                ref = mass_integral_loop(cfg, alpha, t, n=n)
                assert glue.mass_integral(cfg, alpha, t, n=n) == pytest.approx(
                    ref, rel=1e-12, abs=0.0)

    def test_split_matches_presplit_bitwise(self):
        for kw, alpha, t in REF_CASES:
            cfg = make_cfg(**kw)
            rho = np.concatenate([
                np.geomspace(cfg.rho_min, cfg.rho_max, 500),
                [cfg.r, cfg.r + cfg.s, cfg.r + 2.0 * cfg.s, cfg.r + 3.0 * cfg.s]])
            got = glue.q_coefficient(cfg, alpha, t, rho)
            assert got.tobytes() == q_presplit(cfg, alpha, t, rho).tobytes()

    def test_positivity_matches_loop(self):
        # against the 40-digit min(c/4, d/4 + X), over the whole annulus and on
        # the windows below r and across the gluing annulus, where X != 0
        for kw, alpha, _ in REF_CASES:
            cfg = make_cfg(**kw)
            t = 1.2 * glue.required_t(cfg, alpha, 0.0) + 1.0
            for window in (None, (cfg.rho_min, cfg.r), (cfg.r, cfg.r + 3.0 * cfg.s)):
                ref = positivity_oracle(cfg, alpha, t, window=window)
                assert scan_on(cfg, alpha, t, window) == \
                    pytest.approx(ref, rel=1e-14, abs=0.0)

    def test_legendre_cache_read_only(self):
        nodes, weights = glue._legendre(64)
        assert glue._legendre(64)[0] is nodes
        assert not nodes.flags.writeable and not weights.flags.writeable
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(64)
        assert np.array_equal(nodes, ref_nodes)
        assert np.array_equal(weights, ref_weights)


class TestSmallestEigenvalue:
    """exact_min_eig, the 40-digit reference of the block's smaller eigenvalue, against
    np.linalg.eigvalsh on both signs of m, the block's mean diagonal entry: semiflat eval,
    whose m is never negative, reads det/(m + r) (tests/test_cli.py)."""

    def test_backward_error_against_eigvalsh(self):
        # on these draws eigvalsh is within 13.4u times the scale of the 40-digit value
        u = 2.0 ** -53
        rng = np.random.default_rng(20)
        size = 5000
        c, d = 10.0 ** rng.uniform(-3, 3, (2, size))
        g_r, g_i = 10.0 ** rng.uniform(-3, 3, (2, size)) * rng.choice([-1, 1], (2, size))
        x = rng.uniform(-1.0, 1.0, size) * (c + d) * (1.0 + g_r ** 2 + g_i ** 2)
        block, scale = min_eig_block(c, d, g_r, g_i, x)
        exact = np.array([exact_min_eig(*map(Decimal, (ci, di)),
                                        Decimal(gr) ** 2 + Decimal(gi) ** 2, Decimal(xi))
                          for ci, di, gr, gi, xi in zip(c, d, g_r, g_i, x)])
        ref = np.linalg.eigvalsh(block)[:, 0]
        assert np.all(np.abs(ref - exact) <= 16.0 * u * scale)
        # both signs of m and both signs of the margin are drawn
        m = 0.125 * (c + d + c * (g_r * g_r + g_i * g_i)) + 0.5 * x
        assert np.any(m < 0) and np.any((m >= 0) & (exact < 0)) and np.any(exact > 0)

    @pytest.mark.parametrize("c,d,g_r,g_i,x,m_sign,sign", [
        (2.0, 0.7, 0.3, -1.2, 0.05, 1, 1),
        (59.8, 0.0335, 0.0, 7.6, 0.0, 1, 1),     # a chart block near rho_max, x2 = 0.8
        (3.0, 1.0, 0.5, 0.5, -0.4, 1, -1),
        (1.0, 0.5, 2.0, 0.1, -50.0, -1, -1),
        (1e-3, 2.0, 1e3, -1e2, -1e4, -1, -1),    # large |Gamma|
    ])
    def test_both_branches_against_exact(self, c, d, g_r, g_i, x, m_sign, sign):
        # m_sign is the sign of m, sign the margin's
        m = 0.125 * (c + d + c * (g_r ** 2 + g_i ** 2)) + 0.5 * x
        assert math.copysign(1.0, m) == m_sign
        want = exact_min_eig(Decimal(c), Decimal(d),
                             Decimal(g_r) ** 2 + Decimal(g_i) ** 2, Decimal(x))
        assert math.copysign(1.0, want) == sign
        block, scale = min_eig_block(c, d, g_r, g_i, x)
        assert abs(np.linalg.eigvalsh(block)[0] - want) <= 16.0 * 2.0 ** -53 * scale


class TestClaim2:
    def test_constant_across_scales(self):
        c0s = []
        for r, s in ((0.1, 0.02), (0.05, 0.01), (0.2, 0.04)):
            c0 = glue.claim2_scan(make_cfg(r=r, s=s))
            assert c0 > 0
            c0s.append(c0)
        assert max(c0s) / min(c0s) < 2.0


class TestGluedForm:
    def test_q_outside_annulus_rejected(self):
        cfg = make_cfg()
        with pytest.raises(ValidationError):
            glue.q_coefficient(cfg, 1.0, 2.0, 0.005)

    def test_inner_region_is_rescale_correction(self):
        cfg = make_cfg()
        rho = 0.05
        expect = (2.0 - 1.0) * glue.u_zz(cfg.params, rho)
        assert glue.q_coefficient(cfg, 2.0, 3.0, rho) == pytest.approx(expect)

    def test_outer_region_is_beta_bump(self):
        cfg = make_cfg()
        # psi vanishes past r + 2s, leaving only the beta bump
        rho = 0.145
        expect = 3.0 * cfg.cutoffs._beta(rho, -np.log(rho))
        assert 0.0 < expect < 3.0
        assert glue.q_coefficient(cfg, 2.0, 3.0, rho) == pytest.approx(expect)
        assert glue.q_coefficient(cfg, 2.0, 3.0, 0.5) == 0.0

    def test_alpha_one_kills_correction(self):
        cfg = make_cfg()
        for rho in (0.05, 0.11, 0.125, 0.145, 0.5):
            beta_only = 3.0 * cfg.cutoffs._beta(rho, -np.log(rho))
            assert glue.q_coefficient(cfg, 1.0, 3.0, rho) == pytest.approx(
                beta_only)


class TestPositivity:
    def test_reserve_threshold_enforced(self):
        cfg = make_cfg()
        t_req = glue.required_t(cfg, 2.0, 0.0)
        with pytest.raises(ValidationError, match="need t >"):
            glue.positivity_scan(cfg, 2.0, 0.5 * t_req)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValidationError):
            glue.positivity_scan(make_cfg(), -1.0, 100.0)

    @pytest.mark.parametrize("alpha,t", [(math.nan, 100.0), (2.0, math.nan),
                                         (math.inf, 100.0), (2.0, math.inf)])
    def test_non_finite_rejected(self, alpha, t):
        with pytest.raises(ValidationError, match="finite"):
            glue.positivity_scan(make_cfg(), alpha, t)

    def test_required_t_rejects_non_finite(self):
        for alpha, t_prime in ((math.nan, 1.0), (2.0, math.inf)):
            with pytest.raises(ValidationError, match="finite"):
                glue.required_t(make_cfg(), alpha, t_prime)

    def test_nontrivial_kappa_raises_in_psi_region(self):
        cfg = make_cfg(kappa={0: 1.0, 1: 0.5})
        t = 1.2 * glue.required_t(cfg, 1.1) + 1.0
        with pytest.raises(ValidationError, match="non-trivial kappa"):
            glue.positivity_scan(cfg, 1.1, t)
        outer = (cfg.r + 2.0 * cfg.s, cfg.rho_max)
        assert math.isfinite(scan_on(cfg, 1.1, t, outer))

    def test_kappa_matches_hermitian_matrix_outside_psi_region(self):
        # per-radius reference: the 40-digit entries of the diagonal block
        cfg = make_cfg(kappa={0: 1.0, 1: 0.5})
        t = 1.2 * glue.required_t(cfg, 1.1) + 1.0
        window = (cfg.r + 2.0 * cfg.s, cfg.rho_max)
        want = positivity_oracle(cfg, 1.1, t, window=window)
        got = scan_on(cfg, 1.1, t, window)
        assert got == pytest.approx(want, rel=1e-14)

    def test_kappa_enters_as_modulus_squared(self):
        # the exact reference reads a complex kappa(rho) through
        # Re^2 + Im^2; dropping the |kappa|^2 factor must move the margin
        cfg = make_cfg(kappa={0: 1.0, 1: 0.3 + 0.4j})
        t = 1.2 * glue.required_t(cfg, 1.1) + 1.0
        window = (cfg.r + 2.0 * cfg.s, cfg.rho_max)
        got = scan_on(cfg, 1.1, t, window)
        assert got == pytest.approx(positivity_oracle(cfg, 1.1, t, window=window),
                                    rel=1e-14)
        without = positivity_oracle(make_cfg(), 1.1, t, window=window)
        assert abs(got - without) > 1e-6 * abs(got)

    def test_no_cancellation_at_large_gamma(self):
        # b0 = 1e6 put c|Gamma|^2 / d = b0^2 eps^2 / (2 pi^2 k^2) = 5.1e10 into the
        # chart's yy entry (margin 6.7e-12 at alpha 2); read at the image with
        # Gamma = 0 the margin never forms Gamma, and it is that of b0 = 0, bit for bit
        margins = set()
        for b0 in (0.0, 0.25, 1e6):
            p = sfm.ModelParams(k=1, b0=b0)
            cfg = glue.GlueConfig(params=p, r=0.1, s=0.02, rho_min=1e-4, rho_max=0.9,
                                  v0c=1.0, vomc=0.2)
            for alpha in (0.3, 2.0):
                t = 1.2 * glue.required_t(cfg, alpha, 0.0) + 1.0
                got = glue.positivity_scan(cfg, alpha, t)
                assert got == pytest.approx(positivity_oracle(cfg, alpha, t), rel=1e-14, abs=0.0)
                margins.add((alpha, got))
        assert len(margins) == 2

    @pytest.mark.parametrize("b0", [0.0, 0.25, 1e4])
    def test_chart_block_has_the_margins_sign(self, b0):
        # at a fiber height x2 and twist b0 the chart's block (1/4)[[c, -c conj(Gamma)],
        # [-c Gamma, d + c|Gamma|^2]] + diag(0, X) is congruent to diag(c/4, d/4 + X),
        # with the same determinant (c/4)(d/4 + X): its smallest eigenvalue has the sign
        # of the margin's entry d/4 + X at every radius, on both sides of 0
        p = sfm.ModelParams(k=1, b0=b0)
        cfg = glue.GlueConfig(params=p, r=0.1, s=0.02, rho_min=0.01, rho_max=0.9,
                              v0c=1.0, vomc=0.2)
        signs = set()
        for rho in np.geomspace(0.0101, 0.8999, 40).tolist():
            ell = -math.log(rho)
            c, d = exact_c_d(p, ell)
            for x in (glued_x(cfg, 2.0, 400.0, rho), -0.3 * float(d), -0.2 * float(d)):
                with localcontext() as ctx:
                    ctx.prec = 40
                    sign = math.copysign(1, d / 4 + Decimal(x))
                    for x2 in (0.0, 0.35, 0.8, 3.0):
                        gam2 = (Decimal(b0) * Decimal(ell) / (2 * PI_40 ** 2)) ** 2 \
                            + (Decimal(x2) / Decimal(ell)) ** 2
                        assert math.copysign(1, exact_min_eig(c, d, gam2, Decimal(x))) == sign
                signs.add(sign)
        assert signs == {1, -1}

    @pytest.mark.parametrize("alpha", [1e-300, 1e-15, 5e-15])
    def test_margin_within_rounding_bound_fails_closed(self, alpha):
        # below r, d/4 + X = alpha d/4 is summed from terms of size d/4: the
        # exact margin is positive and of order alpha, float64 cannot see it
        cfg = make_cfg()
        t = 1.2 * glue.required_t(cfg, alpha, 0.0) + 1.0
        window = (cfg.rho_min, cfg.r)
        assert 0.0 < rescaled_margin(cfg, alpha, window) < alpha
        with pytest.raises(NumericalError, match="cannot resolve positivity_margin"):
            scan_on(cfg, alpha, t, window)
        with pytest.raises(NumericalError, match="cannot resolve positivity_margin"):
            glue.positivity_scan(cfg, alpha, t)

    @pytest.mark.parametrize("alpha", [1e-12, 1e-8, 1e-3])
    def test_margin_past_rounding_bound_is_resolved(self, alpha):
        # below r the bound leaves d/4 + X a relative error of at most
        # POSITIVITY_SUM_ERR (2 - alpha)/alpha, and the margin at most about
        # twice that; the 40-digit oracle rounds X as the scan does
        cfg = make_cfg()
        t = 1.2 * glue.required_t(cfg, alpha, 0.0) + 1.0
        window = (cfg.rho_min, cfg.r)
        got = scan_on(cfg, alpha, t, window)
        rel = 4.0 * glue.POSITIVITY_SUM_ERR / alpha
        assert got == pytest.approx(rescaled_margin(cfg, alpha, window), rel=rel, abs=0.0)
        assert got == pytest.approx(positivity_oracle(cfg, alpha, t, window=window),
                                    rel=2.0 * rel, abs=0.0)

    def test_margin_positive_near_reference(self):
        cfg = make_cfg()
        t = 1.2 * glue.required_t(cfg, 1.1) + 1.0
        assert glue.positivity_scan(cfg, 1.1, t) > 0

    def test_scan_grid_must_stay_in_the_annulus(self, capsys):
        # GlueConfig takes rho_max/rho_min < 1.0001 (s = 1e-9 fits r + 3s inside), but
        # 1.0001 rho_min and 0.9999 rho_max then leave the annulus, from the CLI too
        for rho_min, rho_max in ((0.49999, 0.50001), (0.4999999, 0.5000001)):
            cfg = make_cfg(r=0.5, s=1e-9, rho_min=rho_min, rho_max=rho_max)
            with pytest.raises(ValidationError, match="rho outside the modeled annulus"):
                glue.positivity_scan(cfg, 1.1, 1e9)
            argv = ["glue", "positivity", "--k", "1", "--r", "0.5", "--s", "1e-9", "--rho-min",
                    repr(rho_min), "--rho-max", repr(rho_max), "--v0c", "1", "--vomc", "0.2",
                    "--alpha", "1.1", "--no-timestamp"]
            assert cli.run(argv) == 1
            assert "rho outside the modeled annulus" in capsys.readouterr().err

    def test_margin_monotone_in_t_on_bump(self):
        cfg = make_cfg()
        t = 1.2 * glue.required_t(cfg, 1.1) + 1.0
        win = (cfg.r + cfg.s, cfg.r + 2.0 * cfg.s)
        m1 = scan_on(cfg, 1.1, t, win)
        m2 = scan_on(cfg, 1.1, 10.0 * t, win)
        assert m2 > m1


class TestMassIntegral:
    def test_sign_change_over_alpha(self):
        cfg = make_cfg()
        assert glue.mass_integral(cfg, 0.01, 2.0) > 0
        assert glue.mass_integral(cfg, 1e4, 2.0) < 0

    def test_affine_in_alpha_at_fixed_t(self):
        cfg = make_cfg()
        vals = [glue.mass_integral(cfg, a, 2.0) for a in (1.0, 2.0, 3.0)]
        second = vals[0] - 2.0 * vals[1] + vals[2]
        scale = max(abs(v) for v in vals)
        assert abs(second) <= 1e-9 * scale

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValidationError):
            glue.mass_integral(make_cfg(), 0.0, 2.0)

    @pytest.mark.parametrize("alpha,t", [(math.nan, 2.0), (2.0, math.nan),
                                         (math.inf, 2.0), (2.0, -math.inf)])
    def test_non_finite_rejected(self, alpha, t):
        with pytest.raises(ValidationError, match="finite"):
            glue.mass_integral(make_cfg(), alpha, t)

    def test_nontrivial_kappa_raises(self):
        cfg = make_cfg(kappa={0: 1.0, 1: 0.5})
        with pytest.raises(ValidationError, match="non-trivial kappa"):
            glue.mass_integral(cfg, 2.0, 3.0)


def count_matches(monkeypatch):
    """Calls of glue.harmonic_match, one per build of the radial sums."""
    calls = []
    match = glue.harmonic_match
    monkeypatch.setattr(glue, "harmonic_match",
                        lambda cfg: calls.append(cfg) or match(cfg))
    return calls


def single_rule_sums(cfg, n):
    """(S_1, S_t, S_a) of rule n alone, each a sum over one (segments, n)
    array: the bitwise reference for the sums glue.mass_integral keeps."""
    p = cfg.params
    nodes, weights = np.polynomial.legendre.leggauss(n)
    bounds = np.array(sorted({*cfg.cutoffs.edges, cfg.rho_max}))
    l_lo, l_hi = -np.log(bounds[1:]), -np.log(bounds[:-1])
    mid = (0.5 * (l_lo + l_hi))[:, None]
    half = (0.5 * (l_hi - l_lo))[:, None]
    ell = mid + half * nodes
    rho = np.exp(-ell)
    beta, bracket = glue._q_parts(cfg, rho, -np.log(rho))[:2]
    wkl = 4.0 * weights * half * p.k * ell
    lift = rho ** 2 * sfm.w_factor(p, ell) * p.eps * wkl
    return float(np.sum(wkl)), float(np.sum(lift * beta)), float(np.sum(lift * bracket))


class TestRadialSums:
    def test_built_once_per_node_count(self, monkeypatch):
        # the first solve builds both of solve-alpha's rules in one pass
        calls = count_matches(monkeypatch)
        cfg = make_cfg(**ROOT_CFG)
        first = glue.solve_alpha(cfg)
        assert len(calls) == 1 and set(cfg._sums) == {64, 128}
        assert glue.solve_alpha(cfg) == first
        glue.solve_alpha(cfg, n=128)
        glue.solve_alpha(cfg, n=128)
        assert len(calls) == 1
        glue.mass_integral(cfg, 2.0, 3.0, n=16)
        assert len(calls) == 2

    def test_one_pass_matches_single_rule_bitwise(self):
        # n = 16 is built in one pass with both solver rules
        for kw, alpha, t in REF_CASES:
            cfg = make_cfg(**kw)
            glue.mass_integral(cfg, alpha, t, n=16)
            assert set(cfg._sums) == {16, 64, 128}
            for n in (16, 64, 128):
                assert cfg._sums[n] == single_rule_sums(cfg, n)

    @given(k=st.integers(1, 6), eps=st.floats(1e-3, 10.0), r=st.floats(0.02, 0.5),
           s_frac=st.floats(1e-3, 1.0), min_frac=st.floats(1e-6, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_one_pass_matches_single_rule_sweep(self, k, eps, r, s_frac, min_frac):
        cfg = glue.GlueConfig(params=sfm.ModelParams(k=k, eps=eps), r=r,
                              s=s_frac * (0.95 - r) / 3.0, rho_min=min_frac * r,
                              rho_max=0.97, v0c=40.0, vomc=62.0)
        glue.mass_integral(cfg, 1.0, 1.0)
        assert set(cfg._sums) == set(glue._SOLVE_RULES)
        for n in glue._SOLVE_RULES:
            assert cfg._sums[n] == single_rule_sums(cfg, n)

    def test_equal_config_builds_its_own(self, monkeypatch):
        calls = count_matches(monkeypatch)
        cfg, twin = make_cfg(**ROOT_CFG), make_cfg(**ROOT_CFG)
        assert cfg == twin and cfg is not twin
        assert glue.solve_alpha(cfg) == glue.solve_alpha(twin)
        assert calls == [cfg, twin]

    def test_failure_not_memoised(self, monkeypatch):
        calls = count_matches(monkeypatch)
        cfg = make_cfg(kappa={0: 1.0, 1: 0.5})
        for _ in range(2):
            with pytest.raises(ValidationError, match="non-trivial kappa"):
                glue.mass_integral(cfg, 2.0, 3.0)
        assert len(calls) == 2


class TestSolveAlpha:
    def test_root_found_and_bracketed(self):
        cfg = make_cfg(**ROOT_CFG)
        sol = glue.solve_alpha(cfg)
        lo, hi = sol.bracket
        assert lo < sol.alpha_star < hi
        assert sol.values[0] > 0 > sol.values[1]
        residual = glue.mass_integral(cfg, sol.alpha_star, sol.t_at_root)
        assert abs(residual) < 1e-9 * cfg.v0c
        assert sol.t_at_root == pytest.approx(
            glue.required_t(cfg, sol.alpha_star))

    def test_root_stable_under_refinement(self):
        cfg = make_cfg(**ROOT_CFG)
        coarse = glue.solve_alpha(cfg, n=64).alpha_star
        fine = glue.solve_alpha(cfg, n=128).alpha_star
        assert abs(coarse - fine) <= 1e-6

    def test_positivity_at_root(self):
        cfg = make_cfg(**ROOT_CFG)
        sol = glue.solve_alpha(cfg)
        assert glue.positivity_scan(cfg, sol.alpha_star, sol.t_at_root) > 0

    def test_readme_config_returns_smaller_root(self):
        # f changes sign twice (near 0.8693 and 1.798); the solver keeps
        # the root of its first doubling bracket, the smaller one
        cfg = glue.GlueConfig(params=sfm.ModelParams(k=1), r=0.2, s=0.1,
                              rho_min=1e-4, rho_max=0.9, v0c=40.0, vomc=62.0)
        assert readme_f(cfg, 1.0) < 0 < readme_f(cfg, 2.0)
        sol = glue.solve_alpha(cfg)
        assert sol.alpha_star < 1.0
        assert sol.alpha_star == pytest.approx(0.8693309371776228, rel=1e-12)

    def test_close_roots_bracketed_at_kink(self):
        # f(0.512) > 0, f(1.024) > 0 and f(1) < 0: both roots lie between
        # two doubling points, and the kink brackets the smaller one
        cfg = make_cfg(**dict(ROOT_CFG, v0c=60.0), rho_min=1e-4)
        sol = glue.solve_alpha(cfg)
        assert sol.bracket == (0.512, 1.0)
        assert sol.values[0] > 0 > sol.values[1]
        assert readme_f(cfg, 1.024) > 0
        assert sol.alpha_star == pytest.approx(0.9984464086628753, rel=1e-12)

    def test_non_finite_tprime_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValidationError, match="finite"):
                glue.solve_alpha(make_cfg(**ROOT_CFG), t_prime=bad)

    @pytest.mark.parametrize("t_prime, error, match", [
        (0.0, ValidationError, "tprime must be positive"),
        (-1.0, ValidationError, "tprime must be positive"),
        # C(r,s) t' is below half an ulp of t(alpha), about 7.3
        (1e-300, NumericalError, "lost in rounding"),
    ])
    def test_reserve_below_positivity_threshold_rejected(self, t_prime, error, match):
        # each t' gave t_at_root <= required_t(alpha_star, 0), which
        # positivity_scan rejects
        with pytest.raises(error, match=match):
            glue.solve_alpha(make_cfg(**ROOT_CFG), t_prime=t_prime)

    def test_no_root_reported(self):
        # reserve slope keeps the integral positive for all alpha here
        with pytest.raises(NumericalError):
            glue.solve_alpha(make_cfg(v0c=1.0, vomc=0.2, r=0.1, s=0.02))
