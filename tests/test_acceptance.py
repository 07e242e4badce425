"""Acceptance gate: eight end-to-end criteria with stated tolerances.

Each test prints a single [PASS]/[FAIL] line for its criterion and then
asserts, so a bare `pytest -s tests/test_acceptance.py` doubles as a
verification report.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from syzlab import calabi as cal
from syzlab import fibration as fib
from syzlab import glue
from syzlab import mirror
from syzlab import semiflat as sf
from syzlab import slag


def _report(num: int, desc: str, ok: bool, detail: str) -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {desc} ({detail})")


def test_criterion_1_monge_ampere_residual():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    tol = 1e-10
    kappas = ({}, {0: 1.0, 1: 1.0}, {0: 1.0, 2: 0.3})
    b0s = (0.0, 0.25, -0.25)
    worst = 0.0
    n_cfg = 0
    for i, k in enumerate((1, 2, 3, 5)):
        for j, eps in enumerate((0.2, 1.0, 5.0)):
            p = sf.ModelParams(k=k, eps=eps, b0=b0s[(i + j) % 3],
                               kappa=kappas[(i * 3 + j) % 3])
            n_cfg += 1
            for _ in range(200):
                pt = fib.from_ell(
                    complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                    rng.uniform(0.5, 50.0), rng.uniform(0.0, 2.0 * math.pi))
                _, rel = sf.ma_residual(p, pt)
                # np.maximum carries a NaN through; the builtin max drops it
                worst = np.maximum(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= tol and n_cfg == 12 and elapsed < 5.0
    _report(1, "Monge-Ampere residual on 12 configs x 200 points", ok,
            f"worst rel {worst:.2e} <= {tol:.0e}, {elapsed:.2f}s < 5s")
    assert n_cfg == 12
    assert worst <= tol
    assert elapsed < 5.0


def test_criterion_2_pairings():
    start = time.perf_counter()
    pair_tol, lag_tol = 1e-8, 1e-10
    worst_pair = 0.0
    worst_lag = 0.0
    cases = [
        (sf.ModelParams(k=1, eps=1.0), fib.FIBER),
        (sf.ModelParams(k=1, eps=1.0), fib.CycleSpec(m1=1, m2=1)),
        (sf.ModelParams(k=2, eps=0.7, b0=0.25), fib.CycleSpec(m1=2, m2=1)),
        (sf.ModelParams(k=3, eps=2.0, b0=-0.5), fib.FIBER),
    ]
    for p, c in cases:
        num = sf.pair_cycle(p, c)
        worst_pair = max(worst_pair, abs(num - sf.pair_closed_form(p, c)))
    lagrangians = [
        (sf.ModelParams(k=1, eps=1.0), fib.CycleSpec(m1=1, m2=0)),
        (sf.ModelParams(k=1, eps=1.0, b0=-0.25), fib.CycleSpec(m1=2, m2=1)),
    ]
    for p, c in lagrangians:
        assert sf.pair_closed_form(p, c) == 0.0
        worst_lag = max(worst_lag, abs(sf.pair_cycle(p, c)))
    elapsed = time.perf_counter() - start
    ok = worst_pair <= pair_tol and worst_lag <= lag_tol and elapsed < 10.0
    _report(2, "cycle pairings vs closed form on 64^2 grids", ok,
            f"pair err {worst_pair:.2e} <= {pair_tol:.0e}, "
            f"Lagrangian {worst_lag:.2e} <= {lag_tol:.0e}, "
            f"{elapsed:.2f}s < 10s")
    assert worst_pair <= pair_tol
    assert worst_lag <= lag_tol
    assert elapsed < 10.0


def test_criterion_3_translation_classes():
    start = time.perf_counter()
    p1 = sf.ModelParams(k=1, eps=1.0)
    p2 = sf.ModelParams(k=2, eps=1.0)
    dc_i = sf.classify_translation(p1, fib.SectionData(h={-1: 0.5, 0: 1.0}))
    dc_ii = sf.classify_translation(p2, fib.SectionData(h={}, b=1.0))
    dc_iii = sf.classify_translation(p1, fib.SectionData(h={0: 1j, 1: 1.0}))
    dc_iv = sf.classify_translation(p1, fib.SectionData(h={0: 1.5, 1: 0.3}))
    elapsed = time.perf_counter() - start
    exp3 = dc_iii.fit.exponent
    r2_4 = dc_iv.fit.r_squared
    ok = (dc_i.variant == sf.NOT_UNIFORM
          and dc_ii.variant == sf.BOUNDED_DIFFERENCE
          and dc_iii.variant == sf.POWER_DECAY and -1.5 <= exp3 <= -1.2
          and dc_iv.variant == sf.EXP_DECAY and r2_4 >= 0.99
          and elapsed < 30.0)
    _report(3, "four translation-defect decay classes", ok,
            f"variants ({dc_i.variant}, {dc_ii.variant}, {dc_iii.variant}, "
            f"{dc_iv.variant}), iii exponent {exp3:.3f} in [-1.5,-1.2], "
            f"iv r^2 {r2_4:.4f} >= 0.99, {elapsed:.2f}s < 30s")
    assert dc_i.variant == sf.NOT_UNIFORM
    assert dc_ii.variant == sf.BOUNDED_DIFFERENCE
    assert dc_iii.variant == sf.POWER_DECAY
    assert -1.5 <= exp3 <= -1.2
    assert dc_iv.variant == sf.EXP_DECAY
    assert r2_4 >= 0.99
    assert elapsed < 30.0


def test_criterion_4_slag_geometry():
    start = time.perf_counter()
    c10 = fib.CycleSpec(m1=1, m2=0)
    # spectral gap within 2 percent of the closed form
    worst_gap = 0.0
    for p, ell in ((sf.ModelParams(k=1, eps=1.0), 10.0),
                   (sf.ModelParams(k=2, eps=0.5, b0=0.25), 7.0),
                   (sf.ModelParams(k=3, eps=2.0), 20.0)):
        geom = slag.fiber_geometry(slag.ModelFiber(p, c10, ell))
        num = slag.lambda1_rayleigh(geom.a_coef, geom.b_coef)
        worst_gap = max(worst_gap, abs(num - geom.lambda1) / geom.lambda1)
    # volume independent of the level
    p = sf.ModelParams(k=1, eps=1.0)
    v5 = slag.fiber_geometry(slag.ModelFiber(p, c10, 5.0)).volume
    v50 = slag.fiber_geometry(slag.ModelFiber(p, c10, 50.0)).volume
    vol_drift = abs(v5 - v50) / v5
    # minimality of the model cycle
    ff = slag.second_fundamental_form(slag.ModelFiber(p, c10, 10.0))
    # second fundamental form decays like 1/r
    _, _, fit = slag.pi_decay(p, c10)
    # noncollapse at 20 random admissible scales
    rng = np.random.default_rng(44)
    all_ok = True
    for _ in range(20):
        pk = sf.ModelParams(k=int(rng.integers(1, 4)),
                            eps=float(rng.uniform(0.3, 3.0)))
        geom = slag.fiber_geometry(
            slag.ModelFiber(pk, c10, float(rng.uniform(2.0, 40.0))))
        delta = float(rng.uniform(0.1, 1.0)) * geom.noncollapse_scale
        _, _, good = slag.noncollapse_check(geom, delta)
        all_ok = all_ok and good
    elapsed = time.perf_counter() - start
    ok = (worst_gap <= 0.02 and vol_drift <= 1e-12 and ff.h_norm <= 1e-8
          and -1.15 <= fit.exponent <= -0.85 and all_ok and elapsed < 60.0)
    _report(4, "special Lagrangian fiber geometry", ok,
            f"lambda1 rel {worst_gap:.2e} <= 2e-2, volume drift "
            f"{vol_drift:.2e} <= 1e-12, |H| {ff.h_norm:.2e} <= 1e-8, "
            f"|II| exponent {fit.exponent:.3f} in [-1.15,-0.85], "
            f"noncollapse 20/20, {elapsed:.2f}s < 60s")
    assert worst_gap <= 0.02
    assert vol_drift <= 1e-12
    assert ff.h_norm <= 1e-8
    assert -1.15 <= fit.exponent <= -0.85
    assert all_ok
    assert elapsed < 60.0


def test_criterion_5_curvature_decay():
    start = time.perf_counter()
    lo, hi = -2.15, -1.85
    exps = []
    for p in (sf.ModelParams(k=1, eps=1.0),
              sf.ModelParams(k=2, eps=0.7, b0=0.25)):
        _, _, fit = sf.curvature_decay(p)
        exps.append(fit.exponent)
    elapsed = time.perf_counter() - start
    ok = all(lo <= e <= hi for e in exps) and elapsed < 60.0
    _report(5, "curvature decay exponent", ok,
            f"exponents {[round(e, 3) for e in exps]} in [{lo},{hi}], "
            f"{elapsed:.2f}s < 60s")
    for e in exps:
        assert lo <= e <= hi
    assert elapsed < 60.0


def test_criterion_6_hyperkahler_rotation():
    start = time.perf_counter()
    taus = (1j, 2j, complex(-0.5, 0.5 * math.sqrt(3.0)), complex(-0.5, 2.0))
    worst_triple = 0.0
    worst_omj = 0.0
    worst_rot = 0.0
    worst_lat = 0.0
    rng = np.random.default_rng(7)
    for tau in taus:
        for k in (1, 2, 3):
            m = cal.CalabiModel(k=k, tau=tau)
            pt = (float(rng.uniform(1.0, 3.0)), float(rng.uniform(0.0, 2.0 * math.pi)),
                  float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 0.5)))
            oi, oj, okk = cal.hk_triple(m, pt)
            scale = abs(2.0 * pt[0] * m.c_tau ** 2)
            for a, b in ((oi, oj), (oi, okk), (oj, okk)):
                from syzlab.forms import top_coeff_pair
                worst_triple = np.maximum(worst_triple,
                                          abs(top_coeff_pair(a, b)) / scale)
            from syzlab.forms import top_coeff, top_coeff_pair
            omj = cal.holomorphic_form_j(m, pt)
            lhs = top_coeff(oj)
            rhs = 0.5 * (top_coeff_pair(omj.real, omj.real)
                         + top_coeff_pair(omj.imag, omj.imag))
            worst_omj = np.maximum(worst_omj, abs(lhs - rhs) / scale)
            for ell in np.linspace(1.0, 3.0, 5):
                for xi1 in np.linspace(0.0, 0.6, 5):
                    for psi in (0.0, 1.0, 2.5):
                        ptg = (float(ell), psi, float(xi1), 0.2)
                        worst_rot = np.maximum(worst_rot, cal.verify_rotation(m, ptg))
            defects = cal.lattice_defects(m, pt)
            # np.maximum and np.max carry a NaN through; the builtin max drops it
            worst_lat = np.maximum(worst_lat, np.max(list(defects.values())))
    elapsed = time.perf_counter() - start
    ok = (worst_triple <= 1e-12 and worst_omj <= 1e-12
          and worst_rot <= 1e-8 and worst_lat <= 1e-10 and elapsed < 30.0)
    _report(6, "hyperkahler triple and rotation on 12 models", ok,
            f"triple {worst_triple:.2e} <= 1e-12, omega_J^2 "
            f"{worst_omj:.2e} <= 1e-12, rotation {worst_rot:.2e} <= 1e-8, "
            f"lattice {worst_lat:.2e} <= 1e-10, {elapsed:.2f}s < 30s")
    assert worst_triple <= 1e-12
    assert worst_omj <= 1e-12
    assert worst_rot <= 1e-8
    assert worst_lat <= 1e-10
    assert elapsed < 30.0


def test_criterion_7_gluing():
    start = time.perf_counter()
    p = sf.ModelParams(k=1, eps=1.0)

    def cfg(r, s, v0c=1.0, vomc=0.2):
        return glue.GlueConfig(params=p, r=r, s=s, rho_min=0.01, rho_max=0.9,
                               v0c=v0c, vomc=vomc)

    c0s = [glue.claim2_scan(cfg(r, s))
           for r, s in ((0.1, 0.02), (0.05, 0.01), (0.2, 0.04))]
    c0_ratio = max(c0s) / min(c0s)
    base = cfg(0.1, 0.02)
    vals = [glue.mass_integral(base, a, 2.0) for a in (1.0, 2.0, 3.0)]
    affine = abs(vals[0] - 2.0 * vals[1] + vals[2]) / max(abs(v) for v in vals)
    root_cfg = cfg(0.2, 0.1, v0c=40.0, vomc=62.0)
    sol = glue.solve_alpha(root_cfg, n=64)
    fine = glue.solve_alpha(root_cfg, n=128)
    drift = abs(sol.alpha_star - fine.alpha_star)
    margin = glue.positivity_scan(root_cfg, sol.alpha_star, sol.t_at_root)
    elapsed = time.perf_counter() - start
    ok = (c0_ratio < 2.0 and margin > 0.0 and affine <= 1e-9
          and drift <= 1e-6 and elapsed < 60.0)
    _report(7, "gluing constants, positivity and mass balance", ok,
            f"C0 ratio {c0_ratio:.3f} < 2, margin {margin:.2e} > 0, "
            f"affine defect {affine:.2e} <= 1e-9, alpha* drift "
            f"{drift:.2e} <= 1e-6, {elapsed:.2f}s < 60s")
    assert c0_ratio < 2.0
    assert margin > 0.0
    assert affine <= 1e-9
    assert drift <= 1e-6
    assert elapsed < 60.0


def test_criterion_8_mirror_arithmetic():
    start = time.perf_counter()
    rng = random.Random(888)
    exact_ok = True
    for _ in range(50):
        # tau in the fundamental domain: |Re tau| <= 1/2 and Im tau >= 1
        re = Fraction(rng.randint(-6, 6), 12)
        im = Fraction(rng.randint(12, 48), rng.randint(1, 12)) + 1
        data = mirror.mirror_map(rng.randint(1, 9),
                                 complex(float(re), float(im)),
                                 rng.randint(1, 9), tau_exact=(re, im))
        exact_ok = exact_ok and data.product_exact == Fraction(1)
    std_ok = True
    for re in (Fraction(0), Fraction(1, 3), Fraction(-2, 5)):
        data = mirror.mirror_map(1, complex(float(re), 2.0), 1,
                                 tau_exact=(re, Fraction(2)))
        std_ok = std_ok and ((data.sf_class == cal.STANDARD) == (re == 0))
    dims_ok = all(sf.moduli_dims(k) == (10 - k, 11 - k, 10 - k)
                  for k in range(1, 10))
    elapsed = time.perf_counter() - start
    ok = exact_ok and std_ok and dims_ok and elapsed < 1.0
    _report(8, "mirror volume product and moduli dimensions", ok,
            f"50/50 exact products = 1, standard class iff Re tau = 0, "
            f"dims for k=1..9, {elapsed:.3f}s < 1s")
    assert exact_ok
    assert std_ok
    assert dims_ok
    assert elapsed < 1.0
