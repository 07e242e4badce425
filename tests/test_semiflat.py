import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from syzlab import fibration as fib
from syzlab import semiflat as sf
from syzlab.errors import ValidationError
from syzlab.forms import check_antisymmetric
from syzlab.numerics import herm_pos

TWO_PI = 2.0 * math.pi


def _pt(ell, theta=0.0, x1=0.0, x2=0.0):
    return fib.from_ell(complex(x1, x2), ell, theta)


class TestSfForm:
    def test_standard_point_values(self):
        # k=1, eps=1, ell=1, Im x = 0: h_yy = 1/(2 pi), h_xx = pi
        p = sf.ModelParams(k=1, eps=1.0)
        h = sf.hermitian_matrix(p, _pt(1.0))
        assert h[0, 0].real == pytest.approx(math.pi)
        assert h[1, 1].real == pytest.approx(1.0 / TWO_PI)
        assert abs(h[0, 1]) <= 1e-14

    def test_off_diagonal_vanishes_on_real_x(self):
        p = sf.ModelParams(k=2, eps=0.7)
        h = sf.hermitian_matrix(p, _pt(3.0, 0.4, 0.9, 0.0))
        assert abs(h[0, 1]) <= 1e-14

    def test_two_route_nonstandard(self):
        # assemble the form directly from the Hermitian coefficients in the
        # (x, y) frame and compare with the chart matrix
        p = sf.ModelParams(k=2, eps=1.0, b0=0.5)
        pt = _pt(2.0, 0.3, 0.25, 0.6)
        q = sf.chart_of(pt)
        h = sf.hermitian_matrix(p, pt)
        dy = np.array([1.0, 1j, 0.0, 0.0])
        dx = np.array([0.0, 0.0, 1.0, 1j])
        route2 = np.zeros((4, 4))
        for (a, va), (b, vb) in [((0, dx), (0, dx)), ((0, dx), (1, dy)),
                                 ((1, dy), (0, dx)), ((1, dy), (1, dy))]:
            m = np.outer(va, np.conj(vb))
            route2 = route2 + (1j * h[a, b] * (m - m.T)).real
        assert np.allclose(route2, sf.sf_form_chart(p, q), atol=1e-12)

    def test_antisymmetric(self):
        p = sf.ModelParams(k=3, eps=0.3, b0=-0.25, alpha=1.4)
        check_antisymmetric(sf.sf_form_chart(p, np.array([2.0, 0.1, 0.3, 0.7])))

    def test_positivity_sweep(self):
        for k in (1, 2, 3, 9):
            for eps in (0.1, 1.0, 10.0):
                for b0 in (0.0, 0.25, -0.25, 2.0, -2.0):
                    p = sf.ModelParams(k=k, eps=eps, b0=b0)
                    for ell in (0.5, 5.0, 50.0):
                        assert herm_pos(
                            sf.hermitian_matrix(p, _pt(ell, 0.2, 0.1, 0.4)))

    def test_scaling_linear_in_alpha(self):
        # whole-form scale: params with alpha equal alpha times alpha=1 form
        p1 = sf.ModelParams(k=1, eps=2.0, b0=0.25, alpha=1.0)
        p2 = sf.ModelParams(k=1, eps=2.0, b0=0.25, alpha=1.7)
        q = np.array([3.0, 0.5, 0.2, 0.8])
        assert np.allclose(sf.sf_form_chart(p2, q),
                           1.7 * sf.sf_form_chart(p1, q), rtol=0, atol=1e-15)

    def test_bad_modulus_rejected(self):
        with pytest.raises(ValidationError):
            fib.FiberPoint(x=0.0, z=1.5 + 0.0j)


class TestMaResidual:
    def test_standard(self):
        p = sf.ModelParams(k=1, eps=1.0)
        _, rel = sf.ma_residual(p, _pt(2.0, 0.7, 0.3, 1.1))
        assert rel <= 1e-10

    def test_kappa_one_plus_z(self):
        p = sf.ModelParams(k=2, eps=0.5, b0=-0.25, alpha=2.2,
                           kappa={0: 1.0, 1: 1.0})
        _, rel = sf.ma_residual(p, _pt(1.5, 0.4, 0.2, 0.6))
        assert rel <= 1e-10

    def test_detects_perturbation(self):
        p = sf.ModelParams(k=1, eps=1.0)
        q = np.array([2.0, 0.0, 0.0, 0.0])
        m = sf.sf_form_chart(p, q)
        m = m.copy()
        m[2, 3] *= 1.01
        m[3, 2] *= 1.01
        top = 2.0 * (m[0, 1] * m[2, 3] - m[0, 2] * m[1, 3] + m[0, 3] * m[1, 2])
        omega_top = p.alpha ** 2 * sf.holomorphic_volume_top(p, q)
        assert abs(top - omega_top) / omega_top == pytest.approx(0.01, rel=0.05)


class TestRiemannianMetric:
    def test_diagonal_closed_form(self):
        # g_ll = g_tt = k l / (pi eps) + 2 pi eps x2^2 / (k l^3)
        p = sf.ModelParams(k=1, eps=1.0)
        for x2 in (0.0, 0.8):
            q = np.array([1.0, 0.0, 0.0, x2])
            g = sf.riemannian_metric_chart(p, q)
            want = 1.0 / math.pi + TWO_PI * x2 ** 2
            assert g[0, 0] == pytest.approx(want, rel=1e-12)
            assert g[1, 1] == pytest.approx(want, rel=1e-12)

    def test_compatible_with_form(self):
        p = sf.ModelParams(k=2, eps=0.3, b0=0.25)
        q = np.array([2.5, 0.6, 0.4, 0.9])
        g = sf.riemannian_metric_chart(p, q)
        assert np.allclose(g, g.T, atol=1e-13)
        assert np.linalg.eigvalsh(g)[0] > 0


class TestPairings:
    def test_fiber_pairing(self):
        p = sf.ModelParams(k=2, eps=0.5)
        assert sf.pair_cycle(p, fib.FIBER) == pytest.approx(0.5, abs=1e-8)

    def test_bad_cycle_standard_lagrangian(self):
        p = sf.ModelParams(k=1, eps=1.0)
        assert abs(sf.pair_cycle(p, fib.CycleSpec(m1=1, m2=0))) <= 1e-10

    def test_quasi_bad_closed_form(self):
        p = sf.ModelParams(k=1, eps=1.0, b0=-0.25, b0_exact=Fraction(-1, 4))
        assert abs(sf.pair_cycle(p, fib.CycleSpec(m1=2, m2=1))) <= 1e-8
        assert sf.pair_cycle(p, fib.CycleSpec(m1=1, m2=0)) == pytest.approx(
            -0.5, abs=1e-8)

    def test_alpha_scaling(self):
        p = sf.ModelParams(k=1, eps=1.0, b0=0.25, alpha=3.0)
        want = sf.pair_closed_form(p, fib.CycleSpec(m1=1, m2=1))
        assert want == pytest.approx(1.5 * 3.0)
        assert sf.pair_cycle(p, fib.CycleSpec(m1=1, m2=1)) == pytest.approx(
            want, rel=1e-8)

    def test_grid_too_small(self):
        p = sf.ModelParams(k=1, eps=1.0)
        with pytest.raises(ValidationError):
            sf.pair_cycle(p, fib.FIBER, n=3)


class TestTranslatePullback:
    def test_identity(self):
        p = sf.ModelParams(k=1, eps=1.0)
        pt = _pt(2.0, 0.5, 0.3, 0.7)
        s = fib.SectionData(h={})
        assert np.allclose(sf.translate_pullback(p, s, pt),
                           sf.sf_form(p, pt), atol=1e-13)

    def test_real_constant_isometry(self):
        p = sf.ModelParams(k=1, eps=1.0)
        pt = _pt(2.0, 0.5, 0.3, 0.7)
        s = fib.SectionData(h={0: 0.37})
        assert sf.translation_defect(p, s, pt) <= 1e-12

    def test_chain_rule_oracle(self):
        p = sf.ModelParams(k=2, eps=0.8, b0=0.25)
        pt = _pt(3.0, 0.2, 0.1, 0.5)
        s = fib.SectionData(h={0: 0.3 + 0.2j, 1: 0.1}, a=0.5, b=0.25)
        pulled = sf.translate_pullback(p, s, pt)
        check_antisymmetric(pulled)

    def test_cocycle(self):
        p = sf.ModelParams(k=1, eps=1.0)
        pt = _pt(2.0, 0.4, 0.2, 0.3)
        s1 = fib.SectionData(h={0: 0.2 + 0.5j})
        s2 = fib.SectionData(h={0: -0.1 + 0.8j, 1: 0.3})
        s12 = fib.SectionData(h={0: 0.1 + 1.3j, 1: 0.3})
        # T_{s1}^* (T_{s2}^* omega) = T_{s1+s2}^* omega via the chain rule
        inner = sf.translate_pullback(p, s2, sf.translate_point(s1, pt))
        eta1 = fib.section_dy(s1, pt.y)
        jac1 = np.eye(4)
        jac1[2, 0], jac1[2, 1] = eta1.real, -eta1.imag
        jac1[3, 0], jac1[3, 1] = eta1.imag, eta1.real
        comp = jac1.T @ inner @ jac1
        once = sf.translate_pullback(p, s12, pt)
        assert np.allclose(comp, once, atol=1e-12)

    def test_branch_descent(self):
        # h with integral (a+b, 2b/k): pullback agrees across branches
        p = sf.ModelParams(k=2, eps=1.0)
        s = fib.SectionData(h={0: 0.2, 1: 0.4}, a=Fraction(0), b=Fraction(1))
        z = 0.1 * cmath.exp(0.9j)
        p0 = fib.FiberPoint(x=0.3 + 0.2j, z=z, branch=0)
        p1 = fib.FiberPoint(x=0.3 + 0.2j, z=z, branch=1)
        m0 = sf.translate_pullback(p, s, p0)
        m1 = sf.translate_pullback(p, s, p1)
        assert np.allclose(m0, m1, atol=1e-12)


class TestClassifyTranslation:
    def test_pole(self):
        p = sf.ModelParams(k=1, eps=1.0)
        dc = sf.classify_translation(p, fib.SectionData(h={-1: 0.5, 0: 1.0}))
        assert dc.variant == sf.NOT_UNIFORM

    def test_bounded_difference(self):
        p = sf.ModelParams(k=2, eps=1.0)
        dc = sf.classify_translation(p, fib.SectionData(h={}, b=1.0))
        assert dc.variant == sf.BOUNDED_DIFFERENCE
        assert dc.bound is not None and dc.bound > 0

    def test_power_decay(self):
        p = sf.ModelParams(k=1, eps=1.0)
        dc = sf.classify_translation(p, fib.SectionData(h={0: 1j, 1: 1.0}))
        assert dc.variant == sf.POWER_DECAY
        assert -1.5 <= dc.fit.exponent <= -1.2

    def test_exp_decay(self):
        p = sf.ModelParams(k=1, eps=1.0)
        dc = sf.classify_translation(p, fib.SectionData(h={0: 1.5, 1: 0.3}))
        assert dc.variant == sf.EXP_DECAY
        assert dc.fit.r_squared >= 0.99


class TestRationalAndDims:
    def test_rational_near_infinity(self):
        p = sf.ModelParams(k=1, eps=1.0, b0_exact=Fraction(0))
        assert sf.rational_near_infinity(p) == (1, 0)
        p = sf.ModelParams(k=1, eps=1.0, b0=-0.25, b0_exact=Fraction(-1, 4))
        assert sf.rational_near_infinity(p) == (2, 1)
        p = sf.ModelParams(k=3, eps=1.0, b0=1.5, b0_exact=Fraction(3, 2))
        assert sf.rational_near_infinity(p) == (1, -1)

    def test_irrational_sentinel(self):
        p = sf.ModelParams(k=1, eps=1.0, b0=math.sqrt(2), b0_irrational=True)
        assert sf.rational_near_infinity(p) is None

    def test_moduli_dims(self):
        assert sf.moduli_dims(1) == (9, 10, 9)
        assert sf.moduli_dims(9) == (1, 2, 1)
        assert sf.moduli_dims(8) == (2, 3, 2)
        with pytest.raises(ValidationError):
            sf.moduli_dims(10)


class TestCurvature:
    def test_fiber_is_flat(self):
        # induced fiber metric is constant in the fiber coordinates
        p = sf.ModelParams(k=1, eps=1.0)
        q = np.array([8.0, 0.3, 0.1, 0.2])
        g = sf.riemannian_metric_chart(p, q)
        for dx in ((0, 0, 1e-4, 0), (0, 0, 0, 1e-4)):
            g2 = sf.riemannian_metric_chart(p, q + np.array(dx))
            assert np.allclose(g2[2:, 2:], g[2:, 2:], atol=1e-12)

    def test_decay_exponent(self):
        p = sf.ModelParams(k=1, eps=1.0)
        _, _, fit = sf.curvature_decay(p)
        assert -2.15 <= fit.exponent <= -1.85
