import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzlab import fibration as fib
from syzlab.errors import ValidationError

TWO_PI = 2.0 * math.pi


class TestFromEll:
    def test_chart_point(self):
        q = fib.from_ell(0.3 - 0.2j, 800.0, 1.5)
        assert q.tolist() == [800.0, 1.5, 0.3, -0.2]

    @pytest.mark.parametrize("x,ell,theta", [
        (0.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, math.nan, 0.0),
        (0.0, math.inf, 0.0), (0.0, 2.0, math.nan), (complex(math.nan, 0.0), 2.0, 0.0),
    ])
    def test_invalid_point_rejected(self, x, ell, theta):
        with pytest.raises(ValidationError):
            fib.from_ell(x, ell, theta)


class TestLatticeBasis:
    def test_k1_real_level(self):
        g1, g2 = fib.lattice_basis(1, TWO_PI)
        assert g1 == 1
        assert g2 == pytest.approx(1j)

    def test_k2_cancellation(self):
        _, g2 = fib.lattice_basis(2, math.pi)
        assert g2 == pytest.approx(1j)

    def test_general_point(self):
        # z = e^{-1 + i*pi/2}: log z = -y on the branch with theta = -pi/2
        _, g2 = fib.lattice_basis(1, complex(1.0, -0.5 * math.pi))
        assert g2 == pytest.approx((-1.0 + 0.5j * math.pi) / (2j * math.pi))

    def test_bad_modulus(self):
        # |z| = 1.5 lies outside the punctured unit disc: Re y < 0
        with pytest.raises(ValidationError):
            fib.lattice_basis(1, -math.log(1.5))

    def test_theta_turn_keeps_the_lattice(self):
        # y and y + 2*pi*i lie over the same z and span the same lattice
        k, y = 3, complex(2.5, 0.4)
        g1, g2 = fib.lattice_basis(k, y)
        _, g2_turned = fib.lattice_basis(k, y + 2j * math.pi)
        assert g2_turned - g2 == pytest.approx(-k * g1)


class TestCycles:
    def test_coprimality_enforced(self):
        with pytest.raises(ValidationError):
            fib.CycleSpec(m1=2, m2=4)

    def test_grid_boxes(self):
        assert fib.FIBER.grid(8).period2 == 1.0
        assert fib.CycleSpec(m1=2, m2=1).grid(8).period2 == 2.0 * TWO_PI


CYCLES = [fib.FIBER, fib.CycleSpec(m1=1, m2=0), fib.CycleSpec(m1=2, m2=1),
          fib.CycleSpec(m1=3, m2=-2)]


class TestLift:
    @pytest.mark.parametrize("c", CYCLES)
    def test_point_moves_along_tangents(self, c):
        k, ell = 2, 7.5
        origin, frame = c.lift(k, ell)
        assert frame.shape == (4, 2)
        slope = 1.0 if c.fiber else (c.m2 / c.m1) / TWO_PI
        for t1, t2 in ((0.3, 0.0), (0.0, 1.7), (0.61, 9.2)):
            want = [ell, 0.0 if c.fiber else -t2, t1, slope * k * ell * t2 / TWO_PI]
            np.testing.assert_allclose(origin + frame @ [t1, t2], want, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("c", CYCLES)
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("ell", [0.7, TWO_PI, 13.0, 41.3])
    def test_lift_grid_equals_point_at_every_node(self, c, k, ell):
        n = 16
        q, t_a, t_b = c.lift_grid(k, ell, n)
        origin, frame = c.lift(k, ell)
        grid = c.grid(n)
        ref = np.array([[origin + frame @ [t1, t2] for t2 in grid.nodes2()]
                        for t1 in grid.nodes1()])
        assert q.shape == (n, n, 4)
        # bitwise, the sign of a zero included
        assert q.tobytes() == ref.tobytes()
        assert np.array_equal(t_a, frame[:, 0]) and np.array_equal(t_b, frame[:, 1])

    @pytest.mark.parametrize("c", CYCLES)
    @given(k=st.floats(1e-3, 1e3), ells=st.lists(st.floats(1e-3, 1e103), min_size=1, max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_lift_over_an_array_stacks_the_scalar_lifts(self, c, k, ells):
        origin, frame = c.lift(k, np.array(ells))
        each = [c.lift(k, ell) for ell in ells]
        # bitwise, the sign of a zero included
        assert origin.shape == (len(ells), 4) and frame.shape == (len(ells), 4, 2)
        assert origin.tobytes() == np.array([o for o, _ in each]).tobytes()
        assert frame.tobytes() == np.array([f for _, f in each]).tobytes()

    @pytest.mark.parametrize("c", CYCLES + [fib.CycleSpec(m1=5, m2=3)])
    @pytest.mark.parametrize("k", [1, 2.5, 1e300])
    def test_x2_slope_is_the_lifts_column(self, c, k):
        # bitwise the lift's frame[..., 3, 1], and the formula written out, k ell/(2 pi) or
        # (m2/m1)(k/(2 pi)) ell/(2 pi), which a change to x2_slope cannot carry with it
        ell = np.array([1e-3, 0.7, 5.0, 13.0, 40.0, 1e8])
        got = c.x2_slope(k, ell)
        assert got.tobytes() == c.lift(k, ell)[1][..., 3, 1].tobytes()
        want = k * ell / TWO_PI if c.fiber else (c.m2 / c.m1) * (k / TWO_PI) * ell / TWO_PI
        assert got.tobytes() == want.tobytes()

    def test_lift_grid_rejects_small_grid(self):
        with pytest.raises(ValidationError):
            fib.FIBER.lift_grid(1, 2.0, 3)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_fiber_tangents_are_lattice_generators(self, k):
        ell = 3.3
        t_a, t_b = fib.FIBER.lift(k, ell)[1].T
        g1, g2 = fib.lattice_basis(k, ell)
        np.testing.assert_allclose(t_a, [0.0, 0.0, g1.real, g1.imag],
                                   rtol=1e-15, atol=0)
        np.testing.assert_allclose(t_b, [0.0, 0.0, g2.real, g2.imag],
                                   rtol=1e-15, atol=0)

    @pytest.mark.parametrize("c", CYCLES[1:])
    def test_bad_cycle_closes_modulo_lattice(self, c):
        k, ell = 3, 4.2
        origin, frame = c.lift(k, ell)
        start, end = origin + frame @ [0.25, 0.0], origin + frame @ [0.25, TWO_PI * c.m1]
        assert end[1] - start[1] == pytest.approx(-TWO_PI * c.m1)
        assert end[3] != pytest.approx(start[3]) or c.m2 == 0
        assert fib.lattice_equal(k, start, end)
        assert not fib.lattice_equal(k, start, end + [0.0, 1.0, 0.0, 0.0])
        assert not fib.lattice_equal(k, start, end + [0.0, 0.0, 0.0, 0.1])
