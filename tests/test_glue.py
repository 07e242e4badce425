import math

import numpy as np
import pytest

from syzlab import fibration as fib
from syzlab import glue
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
    q = t * cut.beta(x)
    psi, psi_p, psi_pp = cut.psi(x)
    glued = (x > cfg.r) & (psi != 0.0)
    if np.any(glued):
        du, dup = glue._match_defect(cfg, x)
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


def positivity_loop(cfg, alpha, t, n=200):
    """Per-radius reference for glue.positivity_scan over the whole annulus."""
    p = cfg.params
    worst = math.inf
    for rho in np.geomspace(cfg.rho_min * 1.0001, cfg.rho_max * 0.9999, n):
        rho = float(rho)
        ell = -math.log(rho)
        qc = q_reference(cfg, alpha, t, rho)
        psi = smoothstep_ref(rho, cfg.r + cfg.s, cfg.r + 2.0 * cfg.s)[0]
        half_term = 0.5 * psi * (alpha - 1.0) * u_zz_ref(cfg, rho)
        for x2 in (0.0, 0.35, 0.8):
            w = sfm.w_factor(p, ell)
            gam = 1j * x2 / ell + p.b0 * ell / (2.0 * math.pi ** 2)
            h_xx = w * p.eps / 2.0
            h_xy = -h_xx * np.conj(gam)
            h_yy = 1.0 / (p.eps * w) + h_xx * abs(gam) ** 2
            cand = 0.5 * np.array([[h_xx, h_xy], [np.conj(h_xy), h_yy]],
                                  dtype=complex)
            cand[1, 1] += (qc - half_term) * rho ** 2
            worst = min(worst, float(np.linalg.eigvalsh(cand)[0]))
    return worst


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
            assert glue.u_prime(cfg.params, rho) == pytest.approx(fd, rel=1e-7)

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
        sup = glue.sup_u_zz(cfg)
        for rho in np.linspace(cfg.r, cfg.r + 3 * cfg.s, 50):
            assert glue.u_zz(cfg.params, rho) <= sup * (1 + 1e-12)

    def test_ode_requires_opt_in(self):
        cfg = make_cfg(kappa={0: 1.0, 1: 0.5})
        with pytest.raises(ValidationError):
            glue.potential_u(cfg.params, 0.3)


class TestCutoffs:
    def test_psi_plateaus(self):
        cut = glue.Cutoffs(r=0.1, s=0.02)
        assert cut.psi(0.11) == (1.0, 0.0, 0.0)
        assert cut.psi(0.15) == (0.0, 0.0, 0.0)
        mid = cut.psi(0.13)[0]
        assert 0.0 < mid < 1.0

    def test_beta_support_and_plateau(self):
        cut = glue.Cutoffs(r=0.1, s=0.02)
        assert cut.beta(0.1) == 0.0
        assert cut.beta(0.161) == 0.0
        assert cut.beta(0.12) == 1.0
        assert cut.beta(0.14) == 1.0
        assert 0.0 < cut.beta(0.11) < 1.0
        assert 0.0 < cut.beta(0.15) < 1.0


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
        assert all(v.shape == (3, 4) for v in cfg.cutoffs.psi(rho))

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
        for kw, alpha, _ in REF_CASES:
            cfg = make_cfg(**kw)
            t = 1.2 * glue.required_t(cfg, alpha, 0.0) + 1.0
            ref = positivity_loop(cfg, alpha, t)
            assert glue.positivity_scan(cfg, alpha, t) == pytest.approx(
                ref, rel=1e-12, abs=0.0)

    def test_legendre_cache_read_only(self):
        nodes, weights = glue._legendre(64)
        assert glue._legendre(64)[0] is nodes
        assert not nodes.flags.writeable and not weights.flags.writeable
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(64)
        assert np.array_equal(nodes, ref_nodes)
        assert np.array_equal(weights, ref_weights)


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
        expect = 3.0 * cfg.cutoffs.beta(rho)
        assert 0.0 < expect < 3.0
        assert glue.q_coefficient(cfg, 2.0, 3.0, rho) == pytest.approx(expect)
        assert glue.q_coefficient(cfg, 2.0, 3.0, 0.5) == 0.0

    def test_alpha_one_kills_correction(self):
        cfg = make_cfg()
        for rho in (0.05, 0.11, 0.125, 0.145, 0.5):
            beta_only = 3.0 * cfg.cutoffs.beta(rho)
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
        assert math.isfinite(glue.positivity_scan(cfg, 1.1, t, window=outer))

    def test_kappa_matches_hermitian_matrix_outside_psi_region(self):
        # per-radius reference from semiflat.hermitian_matrix at theta = 0
        cfg = make_cfg(kappa={0: 1.0, 1: 0.5})
        t = 1.2 * glue.required_t(cfg, 1.1) + 1.0
        lo, hi = cfg.r + 2.0 * cfg.s, cfg.rho_max
        want = math.inf
        for rho in np.geomspace(lo * 1.0001, hi * 0.9999, 40):
            qc = glue.q_coefficient(cfg, 1.1, t, float(rho))
            for x2 in (0.0, 0.35, 0.8):
                pt = fib.from_ell(complex(0.0, x2), -math.log(rho))
                cand = 0.5 * sfm.hermitian_matrix(cfg.params, pt)
                cand[1, 1] += qc * rho ** 2
                want = min(want, float(np.linalg.eigvalsh(cand)[0]))
        got = glue.positivity_scan(cfg, 1.1, t, n=40, window=(lo, hi))
        assert got == pytest.approx(want, rel=1e-12)

    def test_kappa_enters_as_modulus_squared(self):
        # reference built inline from the closed form of the (x, y) block,
        # h_yy = |kappa(rho)|^2 / (eps W) + h_xx |Gamma|^2; dropping the
        # |kappa|^2 factor must move the margin
        cfg = make_cfg(kappa={0: 1.0, 1: 0.5})
        p = cfg.params
        t = 1.2 * glue.required_t(cfg, 1.1) + 1.0
        lo, hi = cfg.r + 2.0 * cfg.s, cfg.rho_max
        margins = {True: math.inf, False: math.inf}
        for rho in np.geomspace(lo * 1.0001, hi * 0.9999, 40):
            ell = -math.log(rho)
            qc = glue.q_coefficient(cfg, 1.1, t, float(rho))
            w = 2.0 * math.pi / (p.k * ell)
            h_xx = 0.5 * w * p.eps
            for x2 in (0.0, 0.35, 0.8):
                gam = complex(p.b0 * ell / (2.0 * math.pi ** 2), x2 / ell)
                for with_kappa in margins:
                    kap2 = abs(1.0 + 0.5 * rho) ** 2 if with_kappa else 1.0
                    h_yy = kap2 / (p.eps * w) + h_xx * abs(gam) ** 2
                    cand = 0.5 * np.array([[h_xx, -h_xx * gam.conjugate()],
                                           [-h_xx * gam, h_yy]])
                    cand[1, 1] += qc * rho ** 2
                    margins[with_kappa] = min(margins[with_kappa],
                                              float(np.linalg.eigvalsh(cand)[0]))
        got = glue.positivity_scan(cfg, 1.1, t, n=40, window=(lo, hi))
        assert got == pytest.approx(margins[True], rel=1e-12)
        assert abs(got - margins[False]) > 1e-6 * abs(got)

    def test_margin_positive_near_reference(self):
        cfg = make_cfg()
        t = 1.2 * glue.required_t(cfg, 1.1) + 1.0
        assert glue.positivity_scan(cfg, 1.1, t) > 0

    def test_window_validation(self):
        cfg = make_cfg()
        with pytest.raises(ValidationError):
            glue.positivity_scan(cfg, 1.0, 5.0, window=(0.001, 0.5))

    def test_margin_monotone_in_t_on_bump(self):
        cfg = make_cfg()
        t = 1.2 * glue.required_t(cfg, 1.1) + 1.0
        win = (cfg.r + cfg.s, cfg.r + 2.0 * cfg.s)
        m1 = glue.positivity_scan(cfg, 1.1, t, window=win)
        m2 = glue.positivity_scan(cfg, 1.1, 10.0 * t, window=win)
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


class TestRadialSums:
    def test_built_once_per_node_count(self, monkeypatch):
        calls = count_matches(monkeypatch)
        cfg = make_cfg(**ROOT_CFG)
        first = glue.solve_alpha(cfg)
        assert len(calls) == 1
        assert glue.solve_alpha(cfg) == first
        assert len(calls) == 1
        glue.solve_alpha(cfg, n=128)
        glue.solve_alpha(cfg, n=128)
        assert len(calls) == 2

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

    def test_no_root_reported(self):
        # reserve slope keeps the integral positive for all alpha here
        with pytest.raises(NumericalError):
            glue.solve_alpha(make_cfg(v0c=1.0, vomc=0.2, r=0.1, s=0.02))
