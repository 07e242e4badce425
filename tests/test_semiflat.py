import cmath
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from syzlab import fibration as fib
from syzlab import semiflat as sf
from syzlab.errors import NumericalError, ValidationError
from syzlab.forms import i_half_a_wedge_abar, top_coeff
from syzlab.numerics import quad_grid

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
        q = _pt(2.0, 0.3, 0.25, 0.6)
        h = sf.hermitian_matrix(p, q)
        dy = np.array([1.0, 1j, 0.0, 0.0])
        dx = np.array([0.0, 0.0, 1.0, 1j])
        route2 = np.zeros((4, 4))
        for (a, va), (b, vb) in [((0, dx), (0, dx)), ((0, dx), (1, dy)),
                                 ((1, dy), (0, dx)), ((1, dy), (1, dy))]:
            m = np.outer(va, np.conj(vb))
            route2 = route2 + (1j * h[a, b] * (m - m.T)).real
        assert np.allclose(route2, sf.sf_form_chart(p, q), atol=1e-12)

    @pytest.mark.parametrize("kappa", [{}, {0: 1.0, 1: 0.5 - 0.25j}])
    def test_hermitian_batch_matches_single_points(self, kappa):
        p = sf.ModelParams(k=2, eps=0.7, b0=0.3, alpha=1.3, kappa=kappa)
        rng = np.random.default_rng(4)
        q = np.stack([rng.uniform(0.5, 6.0, (5, 3)), rng.uniform(-3.0, 3.0, (5, 3)),
                      rng.uniform(-1.0, 1.0, (5, 3)), rng.uniform(-1.0, 1.0, (5, 3))],
                     axis=-1)
        batch = sf.hermitian_matrix(p, q)
        assert batch.shape == (5, 3, 2, 2)
        single = np.array([[sf.hermitian_matrix(p, q[i, j]) for j in range(3)]
                           for i in range(5)])
        assert np.array_equal(batch, single)

    @pytest.mark.parametrize("kappa", [{}, {0: 1.0, 1: 0.5 - 0.3j, 2: 0.2}])
    def test_form_is_i_h_dz_wedge_dzbar(self, kappa):
        # sf_form_chart = i sum h_jk dz_j ^ dzbar_k with z = (x, y) and h
        # from hermitian_matrix, off-diagonal terms included
        p = sf.ModelParams(k=3, eps=0.6, b0=-0.4, alpha=1.7, kappa=kappa)
        rng = np.random.default_rng(21)
        q = np.stack([rng.uniform(0.05, 8.0, (6, 50)), rng.uniform(-7.0, 7.0, (6, 50)),
                      rng.uniform(-2.0, 2.0, (6, 50)), rng.uniform(-2.0, 2.0, (6, 50))],
                     axis=-1)
        dz = np.array([[0.0, 0.0, 1.0, 1j], [1.0, 1j, 0.0, 0.0]])
        w = np.einsum("...jk,jm,kn->...mn", sf.hermitian_matrix(p, q), dz, dz.conj())
        form = (1j * (w - np.swapaxes(w, -1, -2))).real
        ref = sf.sf_form_chart(p, q)
        err = np.max(np.abs(form - ref), axis=(-2, -1))
        assert np.all(err <= 1e-14 * np.max(np.abs(ref), axis=(-2, -1)))

    def test_antisymmetric(self):
        p = sf.ModelParams(k=3, eps=0.3, b0=-0.25, alpha=1.4)
        m = sf.sf_form_chart(p, np.array([2.0, 0.1, 0.3, 0.7]))
        assert np.allclose(m, -m.T)

    def test_positivity_sweep(self):
        for k in (1, 2, 3, 9):
            for eps in (0.1, 1.0, 10.0):
                for b0 in (0.0, 0.25, -0.25, 2.0, -2.0):
                    p = sf.ModelParams(k=k, eps=eps, b0=b0)
                    for ell in (0.5, 5.0, 50.0):
                        h = sf.hermitian_matrix(p, _pt(ell, 0.2, 0.1, 0.4))
                        assert np.linalg.eigvalsh(h)[0] > 0

    def test_scaling_linear_in_alpha(self):
        # whole-form scale: params with alpha equal alpha times alpha=1 form
        p1 = sf.ModelParams(k=1, eps=2.0, b0=0.25, alpha=1.0)
        p2 = sf.ModelParams(k=1, eps=2.0, b0=0.25, alpha=1.7)
        q = np.array([3.0, 0.5, 0.2, 0.8])
        assert np.allclose(sf.sf_form_chart(p2, q),
                           1.7 * sf.sf_form_chart(p1, q), rtol=0, atol=1e-15)

    def test_bad_modulus_rejected(self):
        # |z| = 1.5: the point lies outside the punctured unit disc
        with pytest.raises(ValidationError):
            sf.ma_residual(sf.ModelParams(k=1), np.array([-math.log(1.5), 0.0, 0.0, 0.0]))


def _outer_product_form(p, q):
    """Reference form at one chart point from two (i/2) a ^ abar outer products."""
    ell, th, x1, x2 = (float(v) for v in q)
    kap2 = abs(p.kappa_at(cmath.exp(-(ell + 1j * th)))) ** 2
    w = sf.w_factor(p, ell)
    gam = 1j * x2 / ell + p.b0 * ell / (2.0 * math.pi ** 2)
    dy = np.array([1.0, 1.0j, 0.0, 0.0])
    dx = np.array([0.0, 0.0, 1.0, 1.0j])
    m = (2.0 * kap2 / (p.eps * w)) * i_half_a_wedge_abar(dy)
    m += (w * p.eps) * i_half_a_wedge_abar(dx - gam * dy)
    return p.alpha * m


def _chart_points(rng, shape):
    return np.stack([rng.uniform(0.2, 45.0, shape), rng.uniform(-7.0, 7.0, shape),
                     rng.uniform(-2.0, 2.0, shape), rng.uniform(-2.0, 2.0, shape)],
                    axis=-1)


class TestBatchedKernel:
    @pytest.mark.parametrize("kappa", [{}, {0: 1.0, 1: 0.5},
                                       {2: 0.2, 0: 1.0, 1: 0.5 - 0.3j}])
    def test_batch_equals_stacked_single_points(self, kappa):
        p = sf.ModelParams(k=2, eps=0.7, b0=0.3, alpha=1.3, kappa=kappa)
        q = _chart_points(np.random.default_rng(5), (8, 8))
        # spread ell down to 0.05 so kappa(z) = 1 + 0.5 z moves every entry
        q[..., 0] = np.linspace(0.05, 12.0, 64).reshape(8, 8)
        # x2 = +-0 gives entries +-0, theta = -0 a negative zero in kappa's z
        q[0, :, 3] = 0.0
        q[1, :, 3] = -0.0
        q[2, :, 1] = -0.0
        batch = sf.sf_form_chart(p, q)
        single = np.array([[sf.sf_form_chart(p, q[i, j]) for j in range(8)]
                           for i in range(8)])
        assert batch.shape == (8, 8, 4, 4)
        # one point runs on Python floats, a batch on arrays: the same bits
        assert np.array_equal(batch, single)
        assert np.array_equal(np.signbit(batch), np.signbit(single))
        assert np.signbit(batch[1][batch[1] == 0]).any()
        metric = np.array([[sf.riemannian_metric_chart(p, q[i, j])
                            for j in range(8)] for i in range(8)])
        assert np.array_equal(sf.riemannian_metric_chart(p, q), metric)

    def test_matches_outer_product_form(self):
        rng = np.random.default_rng(11)
        p = sf.ModelParams(k=3, eps=0.6, b0=-0.4, alpha=1.7,
                           kappa={0: 1.0, 1: 0.5 - 0.3j, 2: 0.2})
        q = _chart_points(rng, 1000)
        q[:, 0] = rng.uniform(0.02, 6.0, 1000)  # |kappa| far from 1
        batch = sf.sf_form_chart(p, q)
        ref = np.array([_outer_product_form(p, qq) for qq in q])
        scale = np.abs(ref).max(axis=(1, 2))
        assert np.max(np.abs(batch - ref).max(axis=(1, 2)) / scale) <= 1e-14

    @pytest.mark.parametrize("bad", [
        (3, 5, 1, math.nan), (0, 0, 2, math.inf), (7, 7, 0, -math.inf),
        (2, 6, 0, 0.0), (4, 1, 0, -1.5),
    ])
    def test_one_bad_point_in_a_batch_rejected(self, bad):
        i, j, coord, value = bad
        p = sf.ModelParams(k=1, eps=1.0)
        q = _chart_points(np.random.default_rng(2), (8, 8))
        sf.sf_form_chart(p, q)
        q[i, j, coord] = value
        with pytest.raises(ValidationError):
            sf.sf_form_chart(p, q)
        with pytest.raises(ValidationError):
            sf.sf_form_chart(p, q[i, j])

    @pytest.mark.parametrize("coord,value,message", [
        *((c, v, "must be finite") for c in range(4)
          for v in (math.nan, math.inf, -math.inf)),
        *((0, v, "ell > 0") for v in (0.0, -0.0, -1.0)),
    ])
    def test_rejection_names_the_fault(self, coord, value, message):
        p = sf.ModelParams(k=1, eps=1.0)
        q = _chart_points(np.random.default_rng(4), (3, 5))
        q[1, 3, coord] = value
        for bad in (q, q[1, 3]):
            with pytest.raises(ValidationError, match=message):
                sf.sf_form_chart(p, bad)

    def test_non_finite_reported_before_ell(self):
        q = _chart_points(np.random.default_rng(4), (3, 5))
        q[0, 0, 0] = 0.0
        q[2, 4, 3] = math.nan
        with pytest.raises(ValidationError, match="must be finite"):
            sf.sf_form_chart(sf.ModelParams(k=1), q)

    def test_empty_kappa_equals_unit_kappa(self):
        q = _chart_points(np.random.default_rng(9), (3, 5))
        forms = [sf.sf_form_chart(sf.ModelParams(k=2, eps=0.7, b0=0.3, kappa=kap), qq)
                 for kap in ({}, {0: 1}) for qq in (q, q[2, 1])]
        assert np.array_equal(forms[0], forms[2])
        assert np.array_equal(forms[1], forms[3])

    def test_wrong_trailing_axis_rejected(self):
        with pytest.raises(ValidationError):
            sf.sf_form_chart(sf.ModelParams(k=1), np.ones((4, 3)))

    @pytest.mark.parametrize("b0,x2,signs", [
        (0.0, 0.0, "0001100011000110"),
        (0.0, -0.0, "0011100101000010"),
        (-0.0, 0.0, "0000101010001110"),
        (-0.0, -0.0, "0010101100001010"),
    ])
    def test_signed_zeros_pinned(self, b0, x2, signs):
        p = sf.ModelParams(k=2, eps=0.7, b0=b0, alpha=1.3)
        for q in (np.array([2.0, 0.5, 0.3, x2]), np.array([[2.0, 0.5, 0.3, x2]])):
            m = sf.sf_form_chart(p, q).reshape(4, 4)
            assert "".join("1" if b else "0" for b in np.signbit(m).ravel()) == signs

    @pytest.mark.parametrize("q,row", [
        ([0.05, 0.3, -1.2, 0.7],
         ["0x0.0p+0", "0x1.05b49f0bb077dp+13", "0x1.2b1462045e7eep+9", "0x1.62a2035e9e04dp-5"]),
        ([1.5, -2.0, 0.4, -0.9],
         ["0x0.0p+0", "0x1.2ca04ccbfa236p+2", "-0x1.b582c11f428ddp-1", "0x1.62a2035e9e04dp-5"]),
        ([12.0, 6.5, 0.0, 1.9],
         ["0x0.0p+0", "0x1.03dcb51c05bf7p+5", "0x1.cdd1212f38079p-6", "0x1.62a2035e9e04dp-5"]),
        # summing kappa's terms from the top power would round this one apart
        ([1.03, 2.7, 0.0, 0.5],
         ["0x0.0p+0", "0x1.28ba79193a4acp+1", "0x1.01bf56184dc4ep+0", "0x1.62a2035e9e04dp-5"]),
    ])
    def test_three_term_kappa_row_pinned(self, q, row):
        # bits of the first row recorded before the single-point float path
        p = sf.ModelParams(k=3, eps=0.6, b0=-0.4, alpha=1.7,
                           kappa={0: 1.0, 1: 0.5 - 0.3j, 2: 0.2})
        for m in (sf.sf_form_chart(p, np.array(q)), sf.sf_form_chart(p, np.array([q]))[0]):
            assert [v.hex() for v in m[0]] == row

    @pytest.mark.parametrize("kappa", [{}, {0: 1.0, 1: 0.6}, {0: 1.0, 1: 0.5 - 0.3j, 2: 0.2}])
    def test_single_point_equals_batch_row(self, kappa):
        # pair_cycle loops over single points where one batched call would
        # do: the two paths must agree in every bit, overflowed points too
        p = sf.ModelParams(k=3, eps=0.6, b0=-0.4, alpha=1.7, kappa=kappa)
        rng = np.random.default_rng(17)
        q = _chart_points(rng, 200)
        q[:50, 0] = rng.uniform(0.01, 1.0, 50)
        q[-3:] = [[1e-320, 0.1, 0.0, 0.3], [1e300, 0.1, 0.0, 0.3], [0.5, 0.1, 0.0, 1e300]]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            batch = sf.sf_form_chart(p, q)
            single = np.array([sf.sf_form_chart(p, qq) for qq in q])
        assert not np.isfinite(batch[-3:]).all(axis=(1, 2)).any()
        assert np.array_equal(batch, single, equal_nan=True)
        assert np.array_equal(np.signbit(batch), np.signbit(single))

    @pytest.mark.parametrize("q", [
        [1e-320, 0.1, 0.0, 0.3],  # W = 2 pi / (k ell) overflows
        [1e300, 0.1, 0.0, 0.3],  # b0 * ell overflows
        [0.5, 0.1, 0.0, 1e300],  # Gamma^2 overflows
    ])
    def test_single_point_overflow_raises_under_errstate(self, q):
        # Python floats overflow silently; a point numpy would flag must
        # still raise under np.errstate, as in a batch
        p = sf.ModelParams(k=2, eps=0.7, b0=0.3, alpha=1.3, kappa={0: 1.0, 1: 0.6})
        for pts in (np.array(q), np.array([q])):
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                with pytest.raises(FloatingPointError):
                    sf.sf_form_chart(p, pts)


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

    def test_resolvable_up_to_the_cancellation_bound(self):
        # rho = c|Gamma|^2/d from 0 to MA_RHO_MAX: an exact solution passes
        rng = np.random.default_rng(3)
        p = sf.ModelParams(k=2, eps=0.8, b0=0.6, alpha=1.4, kappa={0: 1.0, 1: 0.4 - 0.2j})
        q = _chart_points(rng, 4000)
        q[:, 3] = rng.uniform(-1.0, 1.0, 4000) * rng.uniform(0.0, 60.0, 4000) ** 3
        # rho = c|Gamma|^2/d from its closed form, c = W eps, d = 2|kappa|^2/(eps W)
        ell, x2 = q[:, 0], q[:, 3]
        w = sf.w_factor(p, ell)
        kap2 = np.abs(p.kappa_at(np.exp(-(ell + 1j * q[:, 1])))) ** 2
        gam2 = (p.b0 * ell / (2.0 * math.pi ** 2)) ** 2 + (x2 / ell) ** 2
        rho = (w * p.eps) * gam2 / (2.0 * kap2 / (p.eps * w))
        keep = rho <= 0.99 * sf.MA_RHO_MAX
        assert np.max(rho[keep]) > 0.5 * sf.MA_RHO_MAX
        assert np.max(sf.ma_residual(p, q[keep])[1]) <= sf.MA_TOL

    @pytest.mark.parametrize("b0,x2", [(1e9, 0.0), (0.0, 1e20), (1e4, 0.0), (0.0, 1e6)])
    def test_unresolvable_cancellation_raises(self, b0, x2):
        p = sf.ModelParams(k=1, b0=b0)
        q = np.array([[2.0, 0.0, 0.0, 0.5], [2.0, 0.0, 0.0, x2]])
        for pts in (q, q[1]):
            with pytest.raises(NumericalError, match="cancellation ratio"):
                sf.ma_residual(p, pts)

    @pytest.mark.parametrize("b0,x2", [(1e9, 0.0), (0.0, 1e20)])
    def test_pfaffian_misses_the_tolerance_past_the_bound(self, b0, x2):
        # why ma_residual raises there: an exact solution reads far above MA_TOL
        p = sf.ModelParams(k=1, b0=b0)
        q = np.array([2.0, 0.0, 0.0, x2])
        rhs = sf.holomorphic_volume_top(p, q)
        assert abs(top_coeff(sf.sf_form_chart(p, q)) - rhs) / rhs > 1e3 * sf.MA_TOL

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

    @pytest.mark.parametrize("kappa", [{}, {0: 1.0, 1: 0.5 - 0.3j}])
    @pytest.mark.parametrize("b0", [0.0, -0.0, 0.3])
    def test_equals_symmetrised_form_times_j(self, kappa, b0):
        # oracle: g = omega J, symmetrised, with J d/dell = d/dtheta and
        # J d/dx1 = d/dx2 on tangent vectors
        j = np.zeros((4, 4))
        j[1, 0] = j[3, 2] = 1.0
        j[0, 1] = j[2, 3] = -1.0
        p = sf.ModelParams(k=2, eps=0.7, b0=b0, alpha=1.3, kappa=kappa)
        q = _chart_points(np.random.default_rng(23), (6, 5))
        q[0, :, 3] = 0.0
        q[1, :, 3] = -0.0
        for pts in (q, q[2, 3]):
            g = sf.sf_form_chart(p, pts) @ j
            want = 0.5 * (g + np.swapaxes(g, -1, -2))
            got = sf.riemannian_metric_chart(p, pts)
            assert got.shape == want.shape and got.flags.c_contiguous
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


class TestPairings:
    def test_fiber_pairing(self):
        p = sf.ModelParams(k=2, eps=0.5)
        assert sf.pair_cycle(p, fib.FIBER) == pytest.approx(0.5, abs=1e-8)

    def test_bad_cycle_standard_lagrangian(self):
        p = sf.ModelParams(k=1, eps=1.0)
        assert abs(sf.pair_cycle(p, fib.CycleSpec(m1=1, m2=0))) <= 1e-10

    def test_quasi_bad_closed_form(self):
        p = sf.ModelParams(k=1, eps=1.0, b0=-0.25)
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

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_one_batched_kernel_call(self, seed):
        # drawable benchmark configs: the per-node loop is one batched call
        rng = np.random.default_rng(seed)
        kappa1 = float(rng.choice([0.0, 0.3, 0.6]))
        p = sf.ModelParams(k=int(rng.integers(1, 4)), eps=float(rng.choice([0.5, 1.0, 2.0])),
                           b0=float(rng.choice([0.0, 0.25, -0.25, 1.0 / 3.0])),
                           kappa={0: 1.0, 1: kappa1} if kappa1 else {})
        for c in (fib.FIBER, fib.CycleSpec(m1=1, m2=0), fib.CycleSpec(m1=1, m2=1),
                  fib.CycleSpec(m1=2, m2=1)):
            q, t_a, t_b = c.lift_grid(p.k, TWO_PI, 64)
            forms = sf.sf_form_chart(p, q).reshape(-1, 4, 4)
            want = quad_grid(((t_a @ forms) @ t_b).reshape(64, 64), c.grid(64))
            assert sf.pair_cycle(p, c).hex() == want.hex()

    @pytest.mark.parametrize("kappa1", [0.0, 0.6])
    @pytest.mark.parametrize("cycle,bits", [
        (fib.FIBER, "0x1.d1eb851eb851ep-1"),
        (fib.CycleSpec(m1=1, m2=0), "-0x1.d1eb851eb851ep-3"),
        (fib.CycleSpec(m1=1, m2=1), "0x1.5d70a3d70a3d6p-1"),
        (fib.CycleSpec(m1=2, m2=1), "0x1.d1eb851eb851ep-2"),
    ])
    def test_quadrature_bits_pinned(self, cycle, bits, kappa1):
        # recorded before the single-point float path of sf_form_chart; the
        # (1, 1) value since the contraction over all nodes at once, which
        # rounds it onto pair_closed_form's float (one ulp below before)
        kappa = {0: 1.0, 1: kappa1} if kappa1 else {}
        p = sf.ModelParams(k=2, eps=0.7, b0=-0.25, alpha=1.3, kappa=kappa)
        assert sf.pair_cycle(p, cycle, n=16).hex() == bits

    def test_row_block_bits_pinned(self):
        # n = 100 contracts three blocks of 40, 40 and 20 rows; recorded
        # when all nodes were contracted at once
        p = sf.ModelParams(k=2, eps=0.7, b0=-0.25, alpha=1.3, kappa={0: 1.0, 1: 0.6})
        assert sf.pair_cycle(p, fib.CycleSpec(m1=1, m2=1), n=100).hex() \
            == "0x1.5d70a3d70a3d8p-1"

    @pytest.mark.parametrize("n", [65, 100, 130])
    def test_row_blocks_equal_one_contraction(self, n):
        p = sf.ModelParams(k=3, eps=0.5, b0=1.0 / 3.0, kappa={0: 1.0, 1: 0.3})
        for c in (fib.FIBER, fib.CycleSpec(m1=1, m2=1), fib.CycleSpec(m1=2, m2=1)):
            q, t_a, t_b = c.lift_grid(p.k, TWO_PI, n)
            forms = sf.sf_form_chart(p, q).reshape(-1, 4, 4)
            want = quad_grid(((t_a @ forms) @ t_b).reshape(n, n), c.grid(n))
            assert sf.pair_cycle(p, c, n=n).hex() == want.hex()

    def test_forms_held_in_row_blocks(self):
        # all 256^2 forms at once would take 8.4 MB
        p = sf.ModelParams(k=1, eps=1.0)
        c = fib.CycleSpec(m1=1, m2=1)
        sf.pair_cycle(p, c, n=16)
        tracemalloc.start()
        try:
            sf.pair_cycle(p, c, n=256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


def _jacobian(eta_y):
    """Chart Jacobian of T_s at one point, from d eta/dy there."""
    jac = np.eye(4)
    jac[2, 0], jac[2, 1] = eta_y.real, -eta_y.imag
    jac[3, 0], jac[3, 1] = eta_y.imag, eta_y.real
    return jac


def _pullback_reference(p, s, q):
    """Per-point T_s^* omega at one chart point by the chain rule."""
    y = complex(q[0], q[1])
    eta = complex(fib.section_eval_y(s, y))
    target = q + np.array([0.0, 0.0, eta.real, eta.imag])
    jac = _jacobian(complex(fib.section_dy(s, y)))
    return jac.T @ sf.sf_form_chart(p, target) @ jac


def _defect_reference(p, s, q):
    """Per-point |T_s^* omega - omega|_g, |d|^2 = (1/2) d_ab d_cd g^ac g^bd."""
    d = _pullback_reference(p, s, q) - sf.sf_form_chart(p, q)
    ginv = np.linalg.inv(sf.riemannian_metric_chart(p, q))
    return math.sqrt(0.5 * np.einsum("ab,cd,ac,bd->", d, d, ginv, ginv))


class TestTranslatePullback:
    def test_identity(self):
        p = sf.ModelParams(k=1, eps=1.0)
        q = _pt(2.0, 0.5, 0.3, 0.7)
        s = fib.SectionData(h={})
        assert np.allclose(sf.translate_pullback(p, s, q),
                           sf.sf_form_chart(p, q), atol=1e-13)

    def test_real_constant_isometry(self):
        p = sf.ModelParams(k=1, eps=1.0)
        q = _pt(2.0, 0.5, 0.3, 0.7)
        s = fib.SectionData(h={0: 0.37})
        assert sf.translation_defect(p, s, q) <= 1e-12

    def test_chain_rule_oracle(self):
        p = sf.ModelParams(k=2, eps=0.8, b0=0.25)
        q = _chart_points(np.random.default_rng(3), (3, 5))
        s = fib.SectionData(h={0: 0.3 + 0.2j, 1: 0.1}, a=0.5, b=0.25)
        pulled = sf.translate_pullback(p, s, q)
        assert pulled.shape == (3, 5, 4, 4)
        assert np.allclose(pulled, -np.swapaxes(pulled, -1, -2))
        for i in range(3):
            for j in range(5):
                ref = _pullback_reference(p, s, q[i, j])
                assert np.max(np.abs(pulled[i, j] - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_cocycle(self):
        p = sf.ModelParams(k=1, eps=1.0)
        q = _pt(2.0, 0.4, 0.2, 0.3)
        s1 = fib.SectionData(h={0: 0.2 + 0.5j})
        s2 = fib.SectionData(h={0: -0.1 + 0.8j, 1: 0.3})
        s12 = fib.SectionData(h={0: 0.1 + 1.3j, 1: 0.3})
        # T_{s1}^* (T_{s2}^* omega) = T_{s1+s2}^* omega via the chain rule
        y = complex(q[0], q[1])
        eta1 = complex(fib.section_eval_y(s1, y))
        inner = sf.translate_pullback(p, s2, q + np.array([0.0, 0.0, eta1.real, eta1.imag]))
        jac1 = _jacobian(complex(fib.section_dy(s1, y)))
        comp = jac1.T @ inner @ jac1
        once = sf.translate_pullback(p, s12, q)
        assert np.allclose(comp, once, atol=1e-12)

    def test_branch_descent(self):
        # h with integral (a+b, 2b/k): pullback agrees on y and y + 2*pi*i,
        # which lie over the same z
        p = sf.ModelParams(k=2, eps=1.0)
        s = fib.SectionData(h={0: 0.2, 1: 0.4}, a=Fraction(0), b=Fraction(1))
        q = _pt(-math.log(0.1), -0.9, 0.3, 0.2)
        m0 = sf.translate_pullback(p, s, q)
        m1 = sf.translate_pullback(p, s, q + np.array([0.0, TWO_PI, 0.0, 0.0]))
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

    @pytest.mark.parametrize("kappa1", [0.0, 0.5])
    @pytest.mark.parametrize("s", [
        fib.SectionData(h={-1: 0.5, 0: 1.0}),
        fib.SectionData(h={0: 0.5 + 1j}, b=Fraction(1, 2)),
        fib.SectionData(h={0: 1j, 1: 1.0}),
        fib.SectionData(h={0: 1.5, 1: 0.3}),
    ], ids=["pole", "b", "complex_h0", "real_h0"])
    def test_samples_match_per_point_chain_rule(self, s, kappa1):
        p = sf.ModelParams(k=2, eps=0.7, b0=0.25,
                           kappa={0: 1.0, 1: kappa1} if kappa1 else {})
        dc = sf.classify_translation(p, s)
        ref = np.array([_defect_reference(p, s, _pt(ell, 0.0, 0.31))
                        for ell in np.linspace(3.0, 14.0, 12)])
        assert np.max(np.abs(dc.values - ref) / ref) <= 1e-12


class TestRationalAndDims:
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

    @pytest.mark.parametrize("p", [
        sf.ModelParams(k=1, eps=1.0),
        sf.ModelParams(k=2, eps=0.7, b0=0.25, kappa={0: 1.0, 1: 0.5}),
    ])
    def test_batched_sweep_matches_per_point_evaluation(self, p):
        r, vals, _ = sf.curvature_decay(p)
        assert vals.shape == (10,)
        for ell, ri, val in zip(np.linspace(5.0, 40.0, 10), r, vals):
            h = 1e-2 * min(1.0, 10.0 / ell)
            riem, g = sf.riemann_fd(lambda qq: sf.riemannian_metric_chart(p, qq),
                                    np.array([ell, 0.0, 0.0, 0.0]), h)
            ginv = np.linalg.inv(g)
            low = np.einsum("ae,ebcd->abcd", g, riem)
            ref = math.sqrt(np.einsum("abcd,efgh,ae,bf,cg,dh->", low, low,
                                      ginv, ginv, ginv, ginv, optimize=True))
            assert val == pytest.approx(ref, rel=1e-12, abs=0.0)
            assert ri == sf.distance_r(p, ell)

    def test_one_stuck_point_fails_the_sweep(self):
        # curvature_decay's step rule on a batch with ell = 1e308: the step
        # 1e-309 there leaves ell unchanged
        ells = np.array([5.0, 10.0, 1e308])
        q = np.zeros((3, 4))
        q[:, 0] = ells
        h = 1e-2 * np.minimum(1.0, 10.0 / ells)
        p = sf.ModelParams(k=1)
        with pytest.raises(NumericalError, match="does not move"):
            sf.riemann_fd(lambda qq: sf.riemannian_metric_chart(p, qq), q, h)


def _sphere_metric(q):
    """Round unit 2-sphere in (theta, phi): g = diag(1, sin^2 theta), on (..., 2)."""
    q = np.asarray(q)
    g = np.zeros(q.shape[:-1] + (2, 2))
    g[..., 0, 0] = 1.0
    g[..., 1, 1] = np.sin(q[..., 0]) ** 2
    return g


def _christoffel_loops(gf, q, h):
    """Reference Christoffel symbols: one single-point gf call per stencil point."""
    n = q.size
    dg = np.empty((n, n, n))
    for a in range(n):
        e = np.zeros(n)
        e[a] = h
        dg[a] = (gf(q + e) - gf(q - e)) / (2.0 * h)
    ginv = np.linalg.inv(gf(q))
    return 0.5 * np.einsum("ad,bdc->abc", ginv, dg + np.einsum("cbd->bdc", dg)
                           - np.einsum("dbc->bdc", dg))


def _riemann_loops(gf, q, h):
    """Reference R^a_{bcd} from per-direction nested central differences."""
    n = q.size
    dgam = np.empty((n, n, n, n))
    for c in range(n):
        e = np.zeros(n)
        e[c] = h
        dgam[c] = (_christoffel_loops(gf, q + e, h)
                   - _christoffel_loops(gf, q - e, h)) / (2.0 * h)
    gam = _christoffel_loops(gf, q, h)
    return (np.einsum("cadb->abcd", dgam) - np.einsum("dacb->abcd", dgam)
            + np.einsum("ace,edb->abcd", gam, gam) - np.einsum("ade,ecb->abcd", gam, gam))


class TestFiniteDifferences:
    H = 1e-3

    def test_sphere_christoffel_over_a_batch(self):
        theta = np.array([[0.4, 0.9, 1.3], [1.7, 2.2, 2.8]])
        q = np.stack([theta, np.full_like(theta, 0.6)], axis=-1)
        gam = sf.christoffel_fd(_sphere_metric, q, self.H)
        assert gam.shape == (2, 3, 2, 2, 2)
        # Gamma^theta_{phi phi} = -sin cos, Gamma^phi_{theta phi} = cot, O(h^2)
        assert np.allclose(gam[..., 0, 1, 1], -np.sin(theta) * np.cos(theta),
                           rtol=0, atol=1e-5)
        assert np.allclose(gam[..., 1, 0, 1], 1.0 / np.tan(theta), rtol=1e-5)
        assert np.array_equal(gam[..., 1, 1, 0], gam[..., 1, 0, 1])
        assert np.allclose(gam[..., 0, 0, 0], 0.0, atol=1e-12)

    def test_one_step_per_point(self):
        q = np.array([[0.4, 0.6], [1.3, 0.6], [2.2, -0.1]])
        h = np.array([1e-3, 4e-3, 2e-2])
        gam = sf.christoffel_fd(_sphere_metric, q, h)
        riem, _ = sf.riemann_fd(_sphere_metric, q, h)
        for i in range(len(q)):
            assert np.array_equal(gam[i], sf.christoffel_fd(_sphere_metric, q[i], h[i]))
            assert np.array_equal(riem[i], sf.riemann_fd(_sphere_metric, q[i], h[i])[0])

    @pytest.mark.parametrize("theta", [0.5, 1.1, 2.4])
    def test_sphere_gaussian_curvature_is_one(self, theta):
        riem, g = sf.riemann_fd(_sphere_metric, np.array([theta, 0.3]), self.H)
        low = np.einsum("ae,ebcd->abcd", g, riem)
        assert low[0, 1, 0, 1] / np.linalg.det(g) == pytest.approx(1.0, abs=1e-5)
        assert low[0, 1, 1, 0] / np.linalg.det(g) == pytest.approx(-1.0, abs=1e-5)

    @pytest.mark.parametrize("kappa", [{}, {0: 1.0, 1: 0.4}])
    def test_agrees_with_nested_loops_on_semiflat_metric(self, kappa):
        p = sf.ModelParams(k=2, eps=0.8, b0=0.25, kappa=kappa)

        def gf(qq):
            return sf.riemannian_metric_chart(p, qq)

        for q, h in ((np.array([6.0, 0.3, 0.2, 0.5]), 1e-2),
                     (np.array([25.0, -1.0, 0.1, 0.9]), 4e-3)):
            gam = sf.christoffel_fd(gf, q, h)
            ref = _christoffel_loops(gf, q, h)
            assert np.max(np.abs(gam - ref)) <= 1e-12 * np.max(np.abs(ref))
            riem, g = sf.riemann_fd(gf, q, h)
            ref = _riemann_loops(gf, q, h)
            assert np.max(np.abs(riem - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert np.array_equal(g, gf(q))

    @pytest.mark.parametrize("q,h", [
        (np.array([1e308, 0.0, 0.0, 0.0]), 2e-310),
        (np.array([2.0, 0.5]), 0.0),
        (np.array([[1.0, 0.5], [1e20, 0.5]]), 1e-3),
        # at a power of two only one side rounds back onto the point
        (np.array([1.0, 0.5]), 0.3 * 2.0 ** -52),
        (np.array([-1.0, 0.5]), 0.3 * 2.0 ** -52),
        # one step per point, one of them zero
        (np.array([[1.0, 0.5], [2.0, 0.5]]), np.array([1e-3, 0.0])),
    ])
    def test_step_that_does_not_move_the_point_fails(self, q, h):
        for fd in (sf.christoffel_fd, sf.riemann_fd):
            with pytest.raises(NumericalError, match="does not move"):
                fd(lambda qq: np.broadcast_to(np.eye(q.shape[-1]),
                                              qq.shape[:-1] + (q.shape[-1],) * 2),
                   q, h)
