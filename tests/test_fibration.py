import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzlab import fibration as fib
from syzlab.errors import ValidationError

TWO_PI = 2.0 * math.pi


class TestLatticeBasis:
    def test_k1_real_level(self):
        g1, g2 = fib.lattice_basis(1, cmath.exp(-TWO_PI))
        assert g1 == 1
        assert g2 == pytest.approx(1j)

    def test_k2_cancellation(self):
        _, g2 = fib.lattice_basis(2, cmath.exp(-math.pi))
        assert g2 == pytest.approx(1j)

    def test_general_point(self):
        z = cmath.exp(-1.0 + 0.5j * math.pi)
        _, g2 = fib.lattice_basis(1, z)
        assert g2 == pytest.approx((cmath.log(z).real + 0.5j * math.pi)
                                   / (2j * math.pi))

    def test_bad_modulus(self):
        with pytest.raises(ValidationError):
            fib.lattice_basis(1, 1.5 + 0.0j)


class TestReducePoint:
    def test_real_shift(self):
        p = fib.FiberPoint(x=1.5, z=complex(math.exp(-TWO_PI)))
        assert fib.reduce_point(1, p).x == pytest.approx(0.5)

    def test_imag_shift(self):
        p = fib.FiberPoint(x=1j + 0.2, z=complex(math.exp(-TWO_PI)))
        assert fib.reduce_point(1, p).x == pytest.approx(0.2)

    @given(st.floats(-5, 5), st.floats(-5, 5), st.floats(0.1, 0.9),
           st.floats(0.0, 6.2), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_lattice_shift(self, x1, x2, rho, arg, k):
        z = rho * cmath.exp(1j * arg)
        p = fib.FiberPoint(x=complex(x1, x2), z=z)
        q = fib.reduce_point(k, p)
        assert fib.reduce_point(k, q).x == pytest.approx(q.x, abs=1e-9)
        g1, g2 = fib.lattice_basis(k, z)
        # difference is an exact integer lattice vector
        diff = p.x - q.x
        det = (g1.real * g2.imag - g1.imag * g2.real)
        n1 = (diff.real * g2.imag - diff.imag * g2.real) / det
        n2 = (g1.real * diff.imag - g1.imag * diff.real) / det
        assert n1 == pytest.approx(round(n1), abs=1e-8)
        assert n2 == pytest.approx(round(n2), abs=1e-8)


class TestSectionEval:
    def test_zero_section(self):
        s = fib.SectionData(h={})
        assert fib.section_eval(s, complex(math.exp(-TWO_PI))) == 0

    def test_linear_term(self):
        s = fib.SectionData(h={}, a=1.0)
        val = fib.section_eval(s, complex(math.exp(-TWO_PI)))
        assert val == pytest.approx(1j)

    def test_quadratic_term(self):
        s = fib.SectionData(h={}, b=1.0)
        val = fib.section_eval(s, complex(math.exp(-TWO_PI)))
        assert val == pytest.approx(-1.0)

    def test_single_valued_descent(self):
        # a + b integral and 2b/k integral: branch shift lands on the lattice
        s = fib.SectionData(h={0: 0.3 + 0.1j}, a=Fraction(1), b=Fraction(1))
        assert fib.section_is_single_valued(s, k=2)
        z = 0.3 * cmath.exp(0.7j)
        v0 = fib.section_eval(s, z, branch=0)
        v1 = fib.section_eval(s, z, branch=1)
        p0 = fib.FiberPoint(x=v0, z=z)
        p1 = fib.FiberPoint(x=v1, z=z)
        assert fib.lattice_equal(2, p0, p1)

    def test_multivalued_flagged(self):
        assert not fib.section_is_single_valued(
            fib.SectionData(h={}, a=0.5), k=1)


class TestCycles:
    def test_bad_cycle_point(self):
        c = fib.CycleSpec(m1=1, m2=0)
        p = fib.cycle_point(c, 1, 0.5, 0.3, math.pi)
        assert p.x == pytest.approx(0.3)
        assert p.z == pytest.approx(0.5 * cmath.exp(1j * math.pi))

    def test_c21_winding(self):
        c = fib.CycleSpec(m1=2, m2=1)
        p = fib.cycle_point(c, 1, math.exp(-TWO_PI), 0.0, TWO_PI)
        assert p.x.imag == pytest.approx(0.5)
        assert p.branch == 1

    def test_fiber_kind_rejected(self):
        with pytest.raises(ValidationError):
            fib.cycle_point(fib.FIBER, 1, 0.5, 0.0, 0.0)

    def test_decompose(self):
        assert fib.cycle_decompose(fib.CycleSpec(m1=1, m2=0)) == (1, 0)
        assert fib.cycle_decompose(fib.CycleSpec(m1=2, m2=1)) == (2, 1)
        assert fib.cycle_decompose(fib.CycleSpec(m1=3, m2=-2)) == (3, -2)

    def test_coprimality_enforced(self):
        with pytest.raises(ValidationError):
            fib.CycleSpec(m1=2, m2=4)

    def test_closes_up_modulo_lattice(self):
        c = fib.CycleSpec(m1=2, m2=1)
        level = math.exp(-TWO_PI)
        start = fib.cycle_point(c, 1, level, 0.2, 0.0)
        end = fib.cycle_point(c, 1, level, 0.2, TWO_PI * 2)
        assert fib.lattice_equal(1, start, end)

    def test_grid_boxes(self):
        assert fib.FIBER.grid(8).box2 == (0.0, 1.0)
        assert fib.CycleSpec(m1=2, m2=1).grid(8).box2 == (0.0, 2.0 * TWO_PI)

    def test_quasi_bad_section(self):
        s = fib.quasi_bad_section(1, 2, 1)
        assert s.b == Fraction(1, 4)


CYCLES = [fib.FIBER, fib.CycleSpec(m1=1, m2=0), fib.CycleSpec(m1=2, m2=1),
          fib.CycleSpec(m1=3, m2=-2)]


class TestLift:
    @pytest.mark.parametrize("offset", [0.0, 0.37])
    @pytest.mark.parametrize("c", CYCLES)
    def test_point_moves_along_tangents(self, c, offset):
        point, t_a, t_b = c.lift(2, 7.5, offset)
        for t1, t2 in ((0.3, 0.0), (0.0, 1.7), (0.61, 9.2)):
            np.testing.assert_allclose(point(t1, t2) - point(0.0, 0.0),
                                       t1 * t_a + t2 * t_b, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_fiber_tangents_are_lattice_generators(self, k):
        ell = 3.3
        _, t_a, t_b = fib.FIBER.lift(k, ell)
        g1, g2 = fib.lattice_basis(k, cmath.exp(-ell))
        np.testing.assert_allclose(t_a, [0.0, 0.0, g1.real, g1.imag],
                                   rtol=1e-15, atol=0)
        np.testing.assert_allclose(t_b, [0.0, 0.0, g2.real, g2.imag],
                                   rtol=1e-15, atol=0)

    @pytest.mark.parametrize("c", CYCLES[1:])
    def test_bad_cycle_closes_modulo_lattice(self, c):
        k, ell = 3, 4.2
        point, _, _ = c.lift(k, ell, offset=0.1)
        start, end = point(0.25, 0.0), point(0.25, TWO_PI * c.m1)
        assert end[1] - start[1] == pytest.approx(-TWO_PI * c.m1)
        p0 = fib.from_ell(complex(start[2], start[3]), ell, start[1])
        p1 = fib.from_ell(complex(end[2], end[3]), ell, end[1])
        assert p1.x != pytest.approx(p0.x) or c.m2 == 0
        assert fib.lattice_equal(k, p0, p1)
