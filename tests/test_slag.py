import cmath
import math

import numpy as np
import pytest

from syzlab import fibration as fib
from syzlab import semiflat as sf
from syzlab import slag
from syzlab.errors import NumericalError, ValidationError
from syzlab.forms import wedge_11
from syzlab.numerics import fit_decay

STD = sf.ModelParams(k=1, eps=1.0)
C10 = fib.CycleSpec(m1=1, m2=0)


class TestFiberGeometry:
    def test_lambda1_closed_form(self):
        geom = slag.fiber_geometry(slag.ModelFiber(STD, C10, 10.0))
        assert geom.lambda1 == pytest.approx(math.pi / 10.0)

    def test_coefficients(self):
        geom = slag.fiber_geometry(slag.ModelFiber(STD, C10, 10.0))
        assert geom.a_coef == pytest.approx(10.0 / math.pi)
        assert geom.b_coef == pytest.approx(2.0 * math.pi / 10.0)
        assert geom.a_coef * geom.b_coef == pytest.approx(2.0)

    def test_volume_independent_of_ell(self):
        v5 = slag.fiber_geometry(slag.ModelFiber(STD, C10, 5.0)).volume
        v50 = slag.fiber_geometry(slag.ModelFiber(STD, C10, 50.0)).volume
        assert abs(v5 - v50) <= 1e-12
        assert v5 == pytest.approx(2.0 * math.pi * math.sqrt(2.0))

    def test_volume_multiplicative(self):
        p = sf.ModelParams(k=1, eps=1.0, b0=-0.25)
        v1 = slag.fiber_geometry(slag.ModelFiber(STD, C10, 7.0)).volume
        v2 = slag.fiber_geometry(
            slag.ModelFiber(p, fib.CycleSpec(m1=2, m2=1), 7.0)).volume
        assert v2 == pytest.approx(2.0 * v1, rel=1e-12)

    def test_lambda1_vs_rayleigh(self):
        for k, eps, ell in [(1, 1.0, 10.0), (2, 0.5, 5.0), (3, 2.0, 30.0)]:
            p = sf.ModelParams(k=k, eps=eps)
            geom = slag.fiber_geometry(slag.ModelFiber(p, C10, ell))
            num = slag.lambda1_rayleigh(geom.a_coef, geom.b_coef)
            assert abs(num - geom.lambda1) / geom.lambda1 <= 0.02

    def test_lambda1_decay_in_ell(self):
        ells = np.linspace(5.0, 80.0, 8)
        vals = np.array([slag.fiber_geometry(
            slag.ModelFiber(STD, C10, l)).lambda1 for l in ells])
        fit = fit_decay(ells, vals)
        assert fit.exponent == pytest.approx(-1.0, abs=0.05)

    @pytest.mark.parametrize("ell", [math.inf, -math.inf, math.nan])
    def test_non_finite_ell_rejected(self, ell):
        with pytest.raises(ValidationError, match="finite"):
            slag.ModelFiber(STD, C10, ell)

    def test_alpha_rescale_law(self):
        # scaling the metric by alpha scales vol by alpha, lambda1 by
        # 1/alpha and the diameter by sqrt(alpha)
        a = sf.ModelParams(k=1, eps=1.0, alpha=1.0)
        b = sf.ModelParams(k=1, eps=1.0, alpha=2.0)
        ga = slag.fiber_geometry(slag.ModelFiber(a, C10, 9.0))
        gb = slag.fiber_geometry(slag.ModelFiber(b, C10, 9.0))
        assert gb.volume == pytest.approx(2.0 * ga.volume)
        assert gb.lambda1 == pytest.approx(ga.lambda1 / 2.0)
        assert gb.diameter == pytest.approx(math.sqrt(2.0) * ga.diameter)


def _check_special_loops(mf, n=32):
    """Reference for check_special: one single-point form per grid node."""
    p = mf.params
    grid = mf.cycle.grid(n)
    origin, frame = mf.cycle.lift(p.k, mf.ell)
    t_a, t_b = frame.T
    sup_omega = sup_phase = 0.0
    for t1 in grid.nodes1():
        for t2 in grid.nodes2():
            q = origin + frame @ [t1, t2]
            sup_omega = max(sup_omega, abs(float(t_a @ sf.sf_form_chart(p, q) @ t_b)))
            om = p.kappa_at(cmath.exp(-(q[0] + 1j * q[1]))) * wedge_11(sf._DY, sf._DX)
            sup_phase = max(sup_phase, abs((-1j * complex(t_a @ om @ t_b)).imag))
    return sup_omega, sup_phase


class TestSpecialCondition:
    @pytest.mark.parametrize("b0,kappa,cycle,ell", [
        (0.0, {}, (1, 1), 6.0),
        (0.3, {0: 1.0, 1: 0.8}, (2, 1), 3.0),
        (-0.5, {0: 1.0, 1: 0.5 + 0.5j}, (1, 1), 1.5),
    ])
    def test_grid_matches_per_node_loop(self, b0, kappa, cycle, ell):
        p = sf.ModelParams(k=2, eps=0.7, b0=b0, kappa=kappa)
        mf = slag.ModelFiber(p, fib.CycleSpec(*cycle), ell)
        got = slag.check_special(mf)
        ref = _check_special_loops(mf)
        assert ref[0] > 1e-3 or ref[1] > 1e-3
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-300)

    def test_standard_bad_cycle(self):
        sup_om, sup_ph = slag.check_special(slag.ModelFiber(STD, C10, 10.0))
        assert sup_om <= 1e-10 and sup_ph <= 1e-10

    def test_matched_quasi_bad(self):
        p = sf.ModelParams(k=1, eps=1.0, b0=-0.25)
        mf = slag.ModelFiber(p, fib.CycleSpec(m1=2, m2=1), 8.0)
        sup_om, sup_ph = slag.check_special(mf)
        assert sup_om <= 1e-10 and sup_ph <= 1e-10

    def test_kappa_phase_defect_stretched_exp(self):
        p = sf.ModelParams(k=1, eps=1.0, kappa={0: 1.0, 1: 1.0})
        ells = np.linspace(3.0, 15.0, 7)
        vals = []
        for ell in ells:
            _, ph = slag.check_special(slag.ModelFiber(p, C10, ell))
            vals.append(ph)
        r = np.array([sf.distance_r(p, l) for l in ells])
        fit = fit_decay(r, np.array(vals), model="stretched_exp")
        assert fit.r_squared >= 0.99
        assert fit.exponent < 0


class TestSecondFundamentalForm:
    def test_mean_curvature_vanishes(self):
        ff = slag.second_fundamental_form(slag.ModelFiber(STD, C10, 10.0))
        assert ff.h_norm <= 1e-8

    def test_gauss_equation(self):
        ff = slag.second_fundamental_form(slag.ModelFiber(STD, C10, 10.0))
        assert ff.gauss_residual <= 1e-6

    def test_pi_decay_against_r(self):
        _, _, fit = slag.pi_decay(STD, C10)
        assert -1.15 <= fit.exponent <= -0.85
        assert fit.r_squared >= 0.99

    @pytest.mark.parametrize("p,cycle", [
        (STD, C10),
        (sf.ModelParams(k=2, eps=0.7, b0=-0.25, kappa={0: 1.0, 1: 0.5}),
         fib.CycleSpec(m1=2, m2=1)),
    ])
    def test_pi_decay_matches_second_fundamental_form(self, p, cycle):
        r, vals, _ = slag.pi_decay(p, cycle)
        assert vals.shape == (10,)
        for ell, ri, val in zip(np.linspace(5.0, 40.0, 10), r, vals):
            ff = slag.second_fundamental_form(slag.ModelFiber(p, cycle, ell))
            assert val == pytest.approx(ff.pi_norm, rel=1e-12, abs=0.0)
            assert ri == sf.distance_r(p, ell)

    def test_one_stuck_point_fails_the_sweep(self):
        # the step 2e-310 at ell = 1e308 leaves ell unchanged; pi_decay
        # samples fixed ells, so the step is checked where ell is free
        with pytest.raises(NumericalError, match="does not move"):
            slag.second_fundamental_form(slag.ModelFiber(STD, C10, 1e308))


class TestNoncollapse:
    def test_half_scale(self):
        geom = slag.fiber_geometry(slag.ModelFiber(STD, C10, 10.0))
        vol, thresh, ok = slag.noncollapse_check(geom,
                                                 0.5 * geom.noncollapse_scale)
        assert ok and vol >= thresh

    def test_full_scale(self):
        geom = slag.fiber_geometry(slag.ModelFiber(STD, C10, 10.0))
        _, _, ok = slag.noncollapse_check(geom, geom.noncollapse_scale)
        assert ok

    def test_delta_out_of_range(self):
        geom = slag.fiber_geometry(slag.ModelFiber(STD, C10, 10.0))
        with pytest.raises(ValidationError):
            slag.noncollapse_check(geom, 2.0 * geom.noncollapse_scale)

    def test_collapsed_torus_detected(self):
        geom = slag.fiber_geometry(slag.ModelFiber(STD, C10, 10.0))
        delta = 0.9 * geom.noncollapse_scale
        vol = slag.ball_area(math.pi * math.sqrt(geom.a_coef),
                             math.sqrt(geom.b_coef) / 100.0, delta)
        assert vol < math.sqrt(2.0) * delta ** 2
