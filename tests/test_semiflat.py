import cmath
import functools
import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from syzlab import fibration as fib
from syzlab import semiflat as sf
from syzlab import slag
from syzlab.errors import NumericalError, ValidationError
from syzlab.forms import i_half_a_wedge_abar, top_coeff
from syzlab.numerics import quad_grid

TWO_PI = 2.0 * math.pi


def _pt(ell, theta=0.0, x1=0.0, x2=0.0):
    return fib.from_ell(complex(x1, x2), ell, theta)


def hermitian_matrix(p, q):
    """Hermitian matrix h of alpha * omega_sf, omega = i sum h_jk dz_j ^ dzbar_k
    with z = (x, y), at chart points q of shape (..., 4), from the closed form
    h = (alpha/2) [[c, -c conj(Gamma)], [-c Gamma, d + c|Gamma|^2]] with
    c = W eps, d = 2|kappa|^2 / (eps W); returns (..., 2, 2)."""
    q = np.asarray(q, dtype=float)
    ell, th, x2 = q[..., 0], q[..., 1], q[..., 3]
    w = TWO_PI / (p.k * ell)
    c = w * p.eps
    d = 2.0 * np.abs(p.kappa_at(np.exp(-(ell + 1j * th)))) ** 2 / (p.eps * w)
    gam = p.b0 * ell / (2.0 * math.pi ** 2) + 1j * x2 / ell
    h = np.empty(q.shape[:-1] + (2, 2), dtype=complex)
    h[..., 0, 0] = c
    h[..., 0, 1] = -c * np.conj(gam)
    h[..., 1, 0] = -c * gam
    h[..., 1, 1] = d + c * np.abs(gam) ** 2
    return 0.5 * p.alpha * h


class TestSfForm:
    def test_standard_point_values(self):
        # k=1, eps=1, ell=1, Im x = 0: h_yy = 1/(2 pi), h_xx = pi
        p = sf.ModelParams(k=1, eps=1.0)
        h = hermitian_matrix(p, _pt(1.0))
        assert h[0, 0].real == pytest.approx(math.pi)
        assert h[1, 1].real == pytest.approx(1.0 / TWO_PI)
        assert abs(h[0, 1]) <= 1e-14

    def test_off_diagonal_vanishes_on_real_x(self):
        p = sf.ModelParams(k=2, eps=0.7)
        h = hermitian_matrix(p, _pt(3.0, 0.4, 0.9, 0.0))
        assert abs(h[0, 1]) <= 1e-14

    def test_two_route_nonstandard(self):
        # assemble the form directly from the Hermitian coefficients in the
        # (x, y) frame and compare with the chart matrix
        p = sf.ModelParams(k=2, eps=1.0, b0=0.5)
        q = _pt(2.0, 0.3, 0.25, 0.6)
        h = hermitian_matrix(p, q)
        dy = np.array([1.0, 1j, 0.0, 0.0])
        dx = np.array([0.0, 0.0, 1.0, 1j])
        route2 = np.zeros((4, 4))
        for (a, va), (b, vb) in [((0, dx), (0, dx)), ((0, dx), (1, dy)),
                                 ((1, dy), (0, dx)), ((1, dy), (1, dy))]:
            m = np.outer(va, np.conj(vb))
            route2 = route2 + (1j * h[a, b] * (m - m.T)).real
        assert np.allclose(route2, sf.sf_form_chart(p, q), atol=1e-12)

    @pytest.mark.parametrize("kappa", [{}, {0: 1.0, 1: 0.5 - 0.3j, 2: 0.2}])
    def test_form_is_i_h_dz_wedge_dzbar(self, kappa):
        # sf_form_chart = i sum h_jk dz_j ^ dzbar_k with z = (x, y) and h
        # from the closed form, off-diagonal terms included
        p = sf.ModelParams(k=3, eps=0.6, b0=-0.4, alpha=1.7, kappa=kappa)
        rng = np.random.default_rng(21)
        q = np.stack([rng.uniform(0.05, 8.0, (6, 50)), rng.uniform(-7.0, 7.0, (6, 50)),
                      rng.uniform(-2.0, 2.0, (6, 50)), rng.uniform(-2.0, 2.0, (6, 50))],
                     axis=-1)
        dz = np.array([[0.0, 0.0, 1.0, 1j], [1.0, 1j, 0.0, 0.0]])
        w = np.einsum("...jk,jm,kn->...mn", hermitian_matrix(p, q), dz, dz.conj())
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
                        h = hermitian_matrix(p, _pt(ell, 0.2, 0.1, 0.4))
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
        # recorded on the 64 x 64 rule when pair_cycle still took a grid size;
        # each is pair_closed_form's float
        kappa = {0: 1.0, 1: kappa1} if kappa1 else {}
        p = sf.ModelParams(k=2, eps=0.7, b0=-0.25, alpha=1.3, kappa=kappa)
        assert sf.pair_cycle(p, cycle).hex() == bits


def section_eval_y(s, y):
    """Section value at y = -log z on the universal cover, each term formed; y may be an
    array."""
    if np.any(np.real(y) <= 0):
        raise ValidationError("need Re y > 0")
    w = 2j * math.pi
    return s.h_at(np.exp(-y)) - complex(s.a) * y / w + complex(s.b) * y * y / (w * w)


def section_dy(s, y):
    """d/dy of the section along the universal cover, each term formed; y may be an array."""
    z = np.exp(-y)
    w = 2j * math.pi
    return -z * s.h_prime_at(z) - complex(s.a) / w + 2.0 * complex(s.b) * y / (w * w)


def two_call_defect(p, s, ell, theta):
    """translation_defect's closed form with eta, eta_y and kappa each evaluated on its own
    e^-y: the oracle of the one-z evaluation."""
    ell, theta = np.asarray(ell, dtype=float), np.asarray(theta, dtype=float)
    y = ell + 1j * theta
    delta = 1j * (section_eval_y(s, y).imag / ell) - section_dy(s, y)
    s = sf.w_factor(p, ell) * p.eps * np.abs(delta) \
        / (math.sqrt(2.0) * np.abs(p.kappa_of_y(ell, theta)))
    return s * np.hypot(math.sqrt(2.0), s)


def _pullback_reference(p, s, q):
    """Per-point T_s^* omega at one chart point by the chain rule."""
    y = complex(q[0], q[1])
    eta = complex(section_eval_y(s, y))
    eta_y = complex(section_dy(s, y))
    target = q + np.array([0.0, 0.0, eta.real, eta.imag])
    jac = np.eye(4)
    jac[2, 0], jac[2, 1] = eta_y.real, -eta_y.imag
    jac[3, 0], jac[3, 1] = eta_y.imag, eta_y.real
    return jac.T @ sf.sf_form_chart(p, target) @ jac


def _defect_reference(p, s, q):
    """Per-point |T_s^* omega - omega|_g, |d|^2 = (1/2) d_ab d_cd g^ac g^bd."""
    d = _pullback_reference(p, s, q) - sf.sf_form_chart(p, q)
    ginv = np.linalg.inv(sf.riemannian_metric_chart(p, q))
    return math.sqrt(0.5 * np.einsum("ab,cd,ac,bd->", d, d, ginv, ginv))


def _form_mp(p, ell, th, x2):
    """alpha * omega_sf at one chart point as a 40-digit mpmath matrix."""
    z = mpmath.exp(-(ell + 1j * th))
    kap = sum(mpmath.mpc(complex(c)) * z ** n for n, c in p.kappa.items()) if p.kappa else 1
    w = 2 * mpmath.pi / (p.k * ell)
    c, d = w * p.eps, 2 * abs(kap) ** 2 / (p.eps * w)
    g_r, g_i = mpmath.mpf(p.b0) * ell / (2 * mpmath.pi ** 2), x2 / ell
    e01, cg_i, cg_r, c = (p.alpha * v for v in (d + c * (g_r ** 2 + g_i ** 2), c * g_i,
                                                c * g_r, c))
    return mpmath.matrix([[0, e01, cg_i, -cg_r], [-e01, 0, cg_r, cg_i],
                          [-cg_i, -cg_r, 0, c], [cg_r, -cg_i, -c, 0]])


def _defect_mp(p, s, q):
    """|T_s^* omega - omega|_g at one chart point by the chain rule in 40-digit
    arithmetic, where the float64 chain rule cancels down to its rounding."""
    with mpmath.workdps(40):
        ell, th, _, x2 = (mpmath.mpf(float(v)) for v in q)
        y = ell + 1j * th
        z, w = mpmath.exp(-y), 2j * mpmath.pi
        a, b = mpmath.mpc(complex(s.a)), mpmath.mpc(complex(s.b))
        eta = sum(mpmath.mpc(complex(c)) * z ** n for n, c in s.h.items()) \
            - a * y / w + b * y * y / (w * w)
        eta_y = -sum(n * mpmath.mpc(complex(c)) * z ** n for n, c in s.h.items()) \
            - a / w + 2 * b * y / (w * w)
        jac = mpmath.eye(4)
        jac[2, 0], jac[2, 1] = mpmath.re(eta_y), -mpmath.im(eta_y)
        jac[3, 0], jac[3, 1] = mpmath.im(eta_y), mpmath.re(eta_y)
        m = _form_mp(p, ell, th, x2)
        d = jac.T * _form_mp(p, ell, th, x2 + mpmath.im(eta)) * jac - m
        # g(u, v) = omega(u, Jv) with J d/dell = d/dtheta, J d/dx1 = d/dx2
        ginv = (m * mpmath.matrix([[0, 1, 0, 0], [-1, 0, 0, 0],
                                   [0, 0, 0, 1], [0, 0, -1, 0]])) ** -1
        up = ginv * d * ginv
        return float(mpmath.sqrt(sum(d[i, j] * up[i, j] for i in range(4)
                                     for j in range(4)) / 2))


def _base(q):
    """(ell, theta) of chart points q of shape (..., 4)."""
    return q[..., 0], q[..., 1]


def _scaled_section(s, lam):
    """lam times the section s, term by term."""
    return fib.SectionData(h={pw: lam * complex(c) for pw, c in s.h.items()},
                           a=lam * complex(s.a), b=lam * complex(s.b))


class TestTranslatePullback:
    """translation_defect, the closed form of |T_s^* omega - omega|_g."""

    def test_identity(self):
        p = sf.ModelParams(k=1, eps=1.0)
        assert sf.translation_defect(p, fib.SectionData(h={}), 2.0, 0.5) == 0.0

    def test_real_constant_isometry(self):
        p = sf.ModelParams(k=2, eps=0.7, b0=0.25, kappa={0: 1.0, 1: 0.5})
        q = _chart_points(np.random.default_rng(5), (4,))
        s = fib.SectionData(h={0: 0.37})
        assert np.all(sf.translation_defect(p, s, *_base(q)) == 0.0)

    def test_chain_rule_oracle(self):
        # the per-point oracle reads the whole chart point, x included
        p = sf.ModelParams(k=2, eps=0.8, b0=0.25, alpha=1.7, kappa={0: 1.0, 1: 0.5})
        q = _chart_points(np.random.default_rng(3), (3, 5))
        s = fib.SectionData(h={0: 0.3 + 0.2j, 1: 0.1}, a=0.5, b=0.25)
        vals = sf.translation_defect(p, s, *_base(q))
        assert vals.shape == (3, 5)
        for i in range(3):
            for j in range(5):
                ref = _defect_reference(p, s, q[i, j])
                assert vals[i, j] == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_cocycle(self):
        # T_{s + c} = T_s o T_c with T_c^* omega = omega for a real constant c,
        # so s and s + c have the same defect
        p = sf.ModelParams(k=1, eps=1.0)
        q = _chart_points(np.random.default_rng(7), (6,))
        s = fib.SectionData(h={0: -0.1 + 0.8j, 1: 0.3}, b=0.5)
        sc = fib.SectionData(h={0: 0.9 + 0.8j, 1: 0.3}, b=0.5)
        assert np.allclose(sf.translation_defect(p, sc, *_base(q)),
                           sf.translation_defect(p, s, *_base(q)), rtol=1e-14, atol=0.0)

    def test_branch_descent(self):
        # h with integral (a+b, 2b/k): the defect agrees on y and y + 2*pi*i,
        # which lie over the same z
        p = sf.ModelParams(k=2, eps=1.0)
        s = fib.SectionData(h={0: 0.2, 1: 0.4}, a=Fraction(0), b=Fraction(1))
        ell = -math.log(0.1)
        d0 = sf.translation_defect(p, s, ell, -0.9)
        d1 = sf.translation_defect(p, s, ell, -0.9 + TWO_PI)
        assert d0 > 0.0 and d1 == pytest.approx(d0, rel=1e-14, abs=0.0)

    def test_free_of_b0_alpha_and_x(self):
        q = _chart_points(np.random.default_rng(11), (5,))
        s = fib.SectionData(h={0: 0.5 + 1j, 1: 0.3}, a=0.25, b=0.5)
        want = sf.translation_defect(sf.ModelParams(k=2, eps=0.7), s, *_base(q))
        for b0, alpha in ((0.25, 1.0), (-1.0 / 3.0, 1.7), (1e9, 1.0)):
            got = sf.translation_defect(sf.ModelParams(k=2, eps=0.7, b0=b0, alpha=alpha), s,
                                        *_base(q))
            assert np.array_equal(got, want)
        # the base points carry no x: the chain rule at x and at x moved agrees with them
        p = sf.ModelParams(k=2, eps=0.7)
        for pt, value in zip(q, want):
            for moved in (pt, pt + np.array([0.0, 0.0, 0.6, -0.4])):
                assert _defect_reference(p, s, moved) == pytest.approx(value, rel=1e-12,
                                                                       abs=0.0)

    def test_scales_as_the_normal_form_section(self):
        # delta is linear in eta and W eps = 2 pi (eps/k)/ell: eta on (k, eps) has the
        # defect of (eps/k) eta on k = eps = 1, whatever b0, alpha and kappa
        rng = np.random.default_rng(48)
        worst = 0.0
        for _ in range(300):
            k, eps = int(rng.integers(1, 10)), 10.0 ** rng.uniform(-3.0, 3.0)
            kappa = {0: 1.0, 1: complex(*rng.uniform(-0.5, 0.5, 2))}
            p = sf.ModelParams(k=k, eps=eps, b0=rng.uniform(-3.0, 3.0),
                               alpha=10.0 ** rng.uniform(-1.0, 1.0), kappa=kappa)
            s = fib.SectionData(h={0: complex(*rng.normal(size=2)),
                                   1: complex(*rng.normal(size=2))},
                                a=complex(*rng.normal(size=2)), b=complex(*rng.normal(size=2)))
            ell, theta = rng.uniform(0.5, 40.0, 8), rng.uniform(-7.0, 7.0, 8)
            want = sf.translation_defect(p, s, ell, theta)
            got = sf.translation_defect(sf.ModelParams(k=1, kappa=kappa),
                                        _scaled_section(s, eps / k), ell, theta)
            worst = max(worst, float(np.max(np.abs(got / want - 1.0))))
        assert worst <= 1e-14

    @pytest.mark.parametrize("s", [
        fib.SectionData(h={0: 1j}),
        fib.SectionData(h={0: 0.37}),
        fib.SectionData(h={-1: 0.5, 0: 1.0, 1: 1.0}),
        fib.SectionData(h={0: 1.0 + 2.0j, 1: 1j}, b=0.5),
        fib.SectionData(h={0: 0.5, 1: 1j}, a=-0.25j),
        fib.SectionData(h={0: 0.3 - 0.2j, 1: -0.4, 2: 0.1j}, a=0.7, b=-1.0 + 0.5j),
        fib.SectionData(h={}, a=Fraction(1, 3), b=Fraction(0)),
    ], ids=["power", "isometry", "pole", "b", "a", "all", "fraction"])
    @pytest.mark.parametrize("kappa", [{}, {0: 1.0, 1: 0.3}, {0: 1.0, 1: -0.5 + 0.2j, 3: 0.1}],
                             ids=["one", "kappa1", "kappa13"])
    def test_one_z_has_the_bits_of_the_two_call_form(self, s, kappa):
        # one e^-y for eta, eta_y and kappa, and no zero log term: the same bits as each
        # evaluated on its own e^-y, at random base points past and below ell = 1
        rng = np.random.default_rng(49)
        ell = np.concatenate((rng.uniform(0.05, 1.0, 20), rng.uniform(1.0, 60.0, 20)))
        theta = rng.uniform(-7.0, 7.0, 40)
        for p in (sf.ModelParams(k=1, kappa=kappa), sf.ModelParams(k=3, eps=2.0, kappa=kappa)):
            got, want = sf.translation_defect(p, s, ell, theta), two_call_defect(p, s, ell, theta)
            assert np.array_equal(got, want)
            assert sf.translation_defect(p, s, ell[7], theta[7]) == want[7]
        y = ell + 1j * theta
        eta, eta_y = fib.section_jet(s, y, np.exp(-y))
        assert np.array_equal(eta, section_eval_y(s, y))
        assert np.array_equal(eta_y, section_dy(s, y))

    def test_rejects_bad_chart_points(self):
        p = sf.ModelParams(k=1)
        s = fib.SectionData(h={0: 1j})
        for ell, theta in ((0.0, 0.0), (-1.0, 0.0), (np.nan, 0.0), (np.inf, 0.0),
                           (2.0, np.inf), (2.0, np.nan)):
            with pytest.raises(ValidationError):
                sf.translation_defect(p, s, ell, theta)


class TestClassifyTranslation:
    def test_pole(self):
        p = sf.ModelParams(k=1, eps=1.0)
        variant, _, vals, fit = sf.classify_translation(p, fib.SectionData(h={-1: 0.5, 0: 1.0}))
        assert variant == sf.NOT_UNIFORM and fit is None
        assert vals[-1] > 2.0 * vals[0]

    def test_bounded_difference(self):
        p = sf.ModelParams(k=2, eps=1.0)
        variant, _, vals, fit = sf.classify_translation(p, fib.SectionData(h={}, b=1.0))
        assert variant == sf.BOUNDED_DIFFERENCE and fit is None
        assert 1e-14 <= np.max(vals) <= 50.0 * np.min(vals)

    def test_power_decay(self):
        p = sf.ModelParams(k=1, eps=1.0)
        variant, _, _, fit = sf.classify_translation(p, fib.SectionData(h={0: 1j, 1: 1.0}))
        assert variant == sf.POWER_DECAY
        assert -1.5 <= fit.exponent <= -1.2

    def test_exp_decay(self):
        p = sf.ModelParams(k=1, eps=1.0)
        variant, _, _, fit = sf.classify_translation(p, fib.SectionData(h={0: 1.5, 1: 0.3}))
        assert variant == sf.EXP_DECAY
        assert fit.model == "stretched_exp" and fit.r_squared >= 0.99 and fit.exponent < 0

    @pytest.mark.parametrize("eps", [7.0, 1e6, 1e100])
    def test_power_window_reads_the_unit_section(self, eps):
        # the window scaled by sqrt(eps |Im h(0)|) = sqrt(eps) reads the samples of eps = 1
        s = fib.SectionData(h={0: 1j})
        _, r1, want, fit1 = sf.classify_translation(sf.ModelParams(k=1), s)
        _, r, got, fit = sf.classify_translation(sf.ModelParams(k=1, eps=eps), s)
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)
        assert fit.exponent == pytest.approx(fit1.exponent, abs=1e-12)
        assert np.allclose(r / r1, eps ** 0.25, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("eps", [1.0, 1e4, 1e6, 1e100])
    def test_stretched_window_follows_h1(self, eps):
        # shifted by log(eps |h_1|), the samples start where eps |h_1| e^-ell is that of
        # eps |h_1| = 1 (fit_r_squared 0.987 at eps = 1e6 on the fixed window)
        s = fib.SectionData(h={0: 1.5, 1: 0.3})
        p = sf.ModelParams(k=1, eps=eps)
        _, r, _, fit = sf.classify_translation(p, s)
        ells = np.linspace(3.0, 14.0, 12) + max(0.0, math.log(0.3 * eps))
        assert np.allclose(sf.distance_r(p, ells), r, rtol=1e-15, atol=0.0)
        assert fit.r_squared >= 0.999 and fit.exponent < 0.0

    @pytest.mark.parametrize("s", [fib.SectionData(h={0: 1.5}),
                                   fib.SectionData(h={0: 0.37, 1: 0.0}),
                                   fib.SectionData(h={0: 1.5}, a=0.5)])
    def test_isometry_from_the_section(self, s):
        # h a real constant and a real: delta = 0, so no fit, and every sample
        # is 0 (up to rounding Im(a y/2 pi i)/ell against a/2 pi for a != 0)
        p = sf.ModelParams(k=2, eps=0.7, b0=0.25, kappa={0: 1.0, 1: 0.5})
        variant, _, vals, fit = sf.classify_translation(p, s)
        assert variant == sf.EXP_DECAY and fit is None
        assert np.max(vals) <= (1e-16 if s.a else 0.0)

    @pytest.mark.parametrize("s", [fib.SectionData(h={0: 1.0, 1: 1.0}),
                                   fib.SectionData(h={0: 1.0}, a=0.5j)])
    def test_small_defect_is_not_an_isometry(self, s):
        # every sample below 1e-14 (eps = 1e-300) classified as an isometry
        # before; the section is not a real constant, so it is fitted
        variant, _, vals, fit = sf.classify_translation(sf.ModelParams(k=1, eps=1e-300), s)
        assert variant == sf.EXP_DECAY and np.max(vals) < 1e-14
        assert fit.model == "stretched_exp"

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
        vals = sf.classify_translation(p, s)[2]
        # the real-h0 defect decays like exp(-ell) against O(1) form entries,
        # which the float64 chain rule cancels down to; 40 digits resolve it
        reference = _defect_mp if s.h0().imag == 0 else _defect_reference
        ref = np.array([reference(p, s, _pt(ell, 0.0, 0.31))
                        for ell in np.linspace(3.0, 14.0, 12)])
        assert np.max(np.abs(vals - ref) / ref) <= (1e-14 if reference is _defect_mp
                                                         else 1e-12)


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
        p1, s = sf.normal_form(p)
        for ell, ri, val in zip(np.linspace(5.0, 40.0, 10), r, vals):
            q = np.array([ell, 0.0, 0.0, 0.0])
            riem, _, g, _ = sf.riemann_jet(p1, ell, 0.0)
            assert val == pytest.approx(s * _rm_norm(riem, g), rel=1e-12, abs=0.0)
            assert ri == sf.distance_r(p, ell)
            # the finite-difference oracle on p itself, O(h^2) with h <= 1e-2:
            # it agrees to 8.1e-6 on both models
            h = 1e-2 * min(1.0, 10.0 / ell)
            riem, _, g = sf.riemann_fd(lambda qq: sf.riemannian_metric_chart(p, qq), q, h)
            assert val == pytest.approx(_rm_norm(riem, g), rel=3e-5, abs=0.0)

    def test_one_stuck_point_fails_the_sweep(self):
        # the oracle's step rule on a batch with ell = 1e308: the step 1e-309
        # there leaves ell unchanged
        ells = np.array([5.0, 10.0, 1e308])
        q = np.zeros((3, 4))
        q[:, 0] = ells
        h = 1e-2 * np.minimum(1.0, 10.0 / ells)
        p = sf.ModelParams(k=1)
        with pytest.raises(NumericalError, match="does not move"):
            sf.riemann_fd(lambda qq: sf.riemannian_metric_chart(p, qq), q, h)


def _rm_norm(riem, g):
    """|Rm|_g at one point by a single contraction of R_abcd with R^abcd."""
    ginv = np.linalg.inv(g)
    low = np.einsum("ae,ebcd->abcd", g, riem)
    return math.sqrt(np.einsum("abcd,efgh,ae,bf,cg,dh->", low, low,
                               ginv, ginv, ginv, ginv, optimize=True))


def _sympy_metric(sp, p, coords):
    """g = alpha (d |dy|^2 + c |dx - Gamma dy|^2) of ModelParams p in sympy,
    written from the form's definition: Re and Im of a = dx - Gamma dy are
    u = (-g_r, g_i, 1, 0) and v = (-g_i, -g_r, 0, 1) in (ell, theta, x1, x2),
    and c_n z^n = c_n e^(-n ell) (cos n theta - i sin n theta) in kappa."""
    ell, th, _, x2 = coords
    re_k = im_k = 0
    for n, c in (p.kappa or {0: 1.0}).items():
        cr, ci = sp.nsimplify(complex(c).real), sp.nsimplify(complex(c).imag)
        re_k += sp.exp(-n * ell) * (cr * sp.cos(n * th) + ci * sp.sin(n * th))
        im_k += sp.exp(-n * ell) * (ci * sp.cos(n * th) - cr * sp.sin(n * th))
    w = 2 * sp.pi / (p.k * ell)
    eps, alpha, b0 = (sp.nsimplify(v) for v in (p.eps, p.alpha, p.b0))
    c, d = w * eps, 2 * (re_k ** 2 + im_k ** 2) / (eps * w)
    g_r, g_i = b0 * ell / (2 * sp.pi ** 2), x2 / ell
    u = sp.Matrix([-g_r, g_i, 1, 0])
    v = sp.Matrix([-g_i, -g_r, 0, 1])
    return alpha * (d * sp.diag(1, 1, 0, 0) + c * (u * u.T + v * v.T))


# the normal forms of three models: the jet takes no other
_JET_MODELS = [sf.normal_form(p)[0] for p in (
    sf.ModelParams(k=1, eps=0.8, b0=0.3, alpha=1.7),
    sf.ModelParams(k=2, eps=1.3, b0=-0.25, alpha=0.6, kappa={0: 1.0, 1: 0.5 - 0.3j}),
    sf.ModelParams(k=3, eps=0.5, b0=1.0 / 3.0, alpha=2.5, kappa={0: 1.0, 2: 0.3}),
)]


class TestMetricJet:
    @pytest.mark.parametrize("p", _JET_MODELS, ids=["kappa1", "linear", "quadratic"])
    def test_matches_sympy_derivatives(self, p):
        sp = pytest.importorskip("sympy")
        coords = sp.symbols("ell theta x1 x2", real=True)
        gs = _sympy_metric(sp, p, coords)
        d1 = [gs.diff(a) for a in coords]
        d2 = [m.diff(b) for m in d1 for b in coords]
        f = sp.lambdify(coords, [list(gs), [v for m in d1 for v in m],
                                 [v for m in d2 for v in m]], "math")
        # the jet's points (ell, theta, x1, 0), x1 drawn: g is free of it
        rng = np.random.default_rng(23)
        q = np.column_stack([rng.uniform(0.5, 12.0, 6), rng.uniform(-3.0, 3.0, 6),
                             rng.uniform(-2.0, 2.0, 6), np.zeros(6)])
        g, dg, ddg = sf.metric_jet(p, q[:, 0], q[:, 1])
        for i, pt in enumerate(q):
            for got, want in zip((g[i], dg[i], ddg[i]), f(*pt.tolist())):
                want = np.array(want, dtype=float).reshape(got.shape)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @given(degree=st.integers(0, 2),
           coeffs=st.tuples(st.complex_numbers(max_magnitude=10.0),
                            st.complex_numbers(max_magnitude=10.0)),
           points=st.lists(st.tuples(st.floats(-3.0, math.log10(sf._ELL_MAX)),
                                     st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
                           min_size=1, max_size=3),
           single=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_g_is_riemannian_metric_chart_bitwise(self, degree, coeffs, points, single):
        # the jet assembles g from its own coefficients; kappa has constant, linear
        # and quadratic terms, and one point takes sf_form_chart's Python-float path.
        # The jet takes b0 = 0 and x2 = 0 alone: TestTwistIsometry and TestShearIsometry
        # carry b0 != 0 and x2 != 0
        kappa = {0: 1.0, **dict(zip((1, 2), coeffs[:degree]))} if degree else {}
        p = sf.ModelParams(k=1, kappa=kappa)
        q = np.array([[min(10.0 ** e, sf._ELL_MAX), th, x1, 0.0] for e, th, x1 in points])
        q = q[0] if single else q
        g, want = sf.metric_jet(p, q[..., 0], q[..., 1])[0], sf.riemannian_metric_chart(p, q)
        # bitwise, the sign of a zero included
        assert g.shape == want.shape and g.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k,eps,b0,alpha", [
        (1, 1.0, 0.0, 1.0), (2, 0.7, 0.25, 1.0), (3, 2.0, -1.0 / 3.0, 1.5), (1, 0.5, 1.0, 0.3)])
    def test_rm_norm_sq_r4_is_128_over_27(self, k, eps, b0, alpha):
        # at every point of a model with kappa = 1, not just the zero section:
        # |Rm| of p at q is s |Rm| of its normal form at the base point of q
        p = sf.ModelParams(k=k, eps=eps, b0=b0, alpha=alpha)
        p1, s = sf.normal_form(p)
        rng = np.random.default_rng(k)
        q = np.column_stack([rng.uniform(1.0, 50.0, 8), rng.uniform(-3.0, 3.0, 8)])
        riem, _, g, _ = sf.riemann_jet(p1, q[:, 0], q[:, 1])
        for i, pt in enumerate(q):
            r = sf.distance_r(p, pt[0])
            assert (s * _rm_norm(riem[i], g[i])) ** 2 * r ** 4 == pytest.approx(128.0 / 27.0,
                                                                               rel=1e-12)
        assert sf.RM_R2 ** 2 == pytest.approx(128.0 / 27.0, rel=1e-15)
        r, vals, _ = sf.curvature_decay(p)
        assert np.max(np.abs(vals * r * r / sf.RM_R2 - 1.0)) <= 1e-14

    @pytest.mark.parametrize("p", _JET_MODELS, ids=["kappa1", "linear", "quadratic"])
    def test_christoffel_and_riemann_match_finite_differences(self, p):
        rng = np.random.default_rng(7)
        q = np.column_stack([rng.uniform(2.0, 12.0, 12), rng.uniform(-3.0, 3.0, 12),
                             rng.uniform(-1.0, 1.0, 12), np.zeros(12)])
        riem, gam, g, ginv = sf.riemann_jet(p, q[:, 0], q[:, 1])
        assert np.allclose(ginv @ g, np.eye(4), rtol=0.0, atol=1e-12)
        riem_fd, gam_fd, g_fd = sf.riemann_fd(
            lambda qq: sf.riemannian_metric_chart(p, qq), q, 1e-3)
        assert np.array_equal(g, g_fd)
        # O(h^2) truncation of the oracle at h = 1e-3
        for jet, fd, bound in ((gam, gam_fd, 1e-5), (riem, riem_fd, 1e-4)):
            axes = tuple(range(1, jet.ndim))
            scale = np.max(np.abs(jet), axis=axes, keepdims=True)
            assert np.max(np.abs(jet - fd) / scale) <= bound

    def test_single_point_equals_batch_row(self):
        p = _JET_MODELS[1]
        ell, theta = np.array([3.0, 7.5]), np.array([0.4, -1.2])
        batch = sf.riemann_jet(p, ell, theta)
        for i in range(2):
            for whole, one in zip(batch, sf.riemann_jet(p, ell[i], theta[i])):
                assert np.max(np.abs(whole[i] - one)) <= 1e-15 * np.max(np.abs(one))

    @pytest.mark.parametrize("p", _JET_MODELS, ids=["kappa1", "linear", "quadratic"])
    def test_base_points_broadcast_together(self, p):
        ell, theta = np.array([[3.0], [7.5]]), np.array([0.4, -1.2, 0.0])
        grid = np.broadcast_arrays(ell, theta)
        for jet in (sf.metric_jet, sf.riemann_jet):
            for got, want in zip(jet(p, ell, theta), jet(p, *grid)):
                assert got.shape == grid[0].shape + want.shape[2:]
                assert got.tobytes() == want.tobytes()
        for got, want in zip(sf.metric_jet(p, ell[:, 0], 0.0),
                             sf.metric_jet(p, ell[:, 0], np.zeros(2))):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("ell,theta,match", [
        (0.0, 0.3, "ell > 0"), (-1.0, 0.3, "ell > 0"), (math.nan, 0.3, "finite"),
        (5.0, math.inf, "finite"), (np.array([5.0, 6.0]), np.array([0.1, math.nan]), "finite")])
    def test_rejects_a_base_point_off_the_chart(self, ell, theta, match):
        with pytest.raises(ValidationError, match=match):
            sf.metric_jet(sf.ModelParams(k=1), ell, theta)

    @given(log_ell=st.one_of(st.floats(100.0, 105.0), st.floats(105.0, 308.0)))
    @example(log_ell=308.0)
    @settings(max_examples=60, deadline=None)
    def test_guard_raises_past_its_bound_and_never_returns_zeros(self, log_ell):
        # C_ell,ell = 4 pi/ell^3 = 2^-1022 at ell = (4 pi)^(1/3) 2^(1022/3),
        # the one bound of the normal-form jet
        p = sf.ModelParams(k=1)
        ell = 10.0 ** log_ell
        bound = (4.0 * math.pi) ** (1.0 / 3.0) * 2.0 ** (1022.0 / 3.0)
        if ell > bound * (1.0 + 1e-9):
            with pytest.raises(NumericalError, match="normal range"):
                sf.metric_jet(p, ell, 0.3)
            return
        try:
            _, dg, ddg = sf.metric_jet(p, ell, 0.3)
        except NumericalError:
            assert ell >= bound * (1.0 - 1e-9)
            return
        for term in (dg[0, 2, 2], ddg[0, 0, 2, 2], ddg[3, 3, 0, 0]):
            assert abs(term) >= np.finfo(float).tiny

    @pytest.mark.parametrize("p", [sf.ModelParams(k=2), sf.ModelParams(k=1, eps=0.5),
                                   sf.ModelParams(k=1, alpha=2.0), sf.ModelParams(k=1, b0=0.5)])
    def test_rejects_a_model_not_in_normal_form(self, p):
        for jet in (sf.metric_jet, sf.riemann_jet):
            with pytest.raises(ValidationError, match="normal-form"):
                jet(p, 5.0, 0.3)


def _kappa_draw(rng):
    """kappa = 1 plus one to three complex terms of powers 1-4, magnitudes 0.1-10."""
    powers = rng.choice(np.arange(1, 5), size=rng.integers(1, 4), replace=False)
    return {0: 1.0, **{int(n): complex(*rng.normal(size=2)) * 10.0 ** rng.uniform(-1.0, 1.0)
                       for n in powers}}


class TestDecayClosedForms:
    def test_rm_and_pi_norms_are_derived_from_the_metric_symbolically(self):
        # metric_jet's g (k = eps = alpha = 1, b0 = 0) at (ell0, 0, x1, 0).  R_abcd reads the
        # 2-jet of g and II its 1-jet, so K's Taylor polynomial to second order stands in
        # for K; theta0 = 0 loses nothing, as only K reads theta.  kappa holomorphic makes
        # log K = 2 Re log kappa, whose jet is 2 Re(v dy + u dy^2/2) with v = kappa_y/kappa
        # and u = (log kappa)_yy: harmonic, so Delta log K = 0.  u drops out of both forms.
        # About 0.8 s once sympy is imported, the Riemann tensor contracted over its nonzeros
        sp = pytest.importorskip("sympy")
        ell, th, x1, x2 = coords = sp.symbols("ell theta x1 x2", real=True)
        ell0, big_k = sp.symbols("ell0 K", positive=True)
        vr, vi, ur, ui, slope = sp.symbols("vr vi ur ui slope", real=True)
        dy = ell - ell0 + sp.I * th
        log_k = 2 * sp.re(sp.expand((vr + sp.I * vi) * dy + (ur + sp.I * ui) * dy ** 2 / 2))
        c, d = 2 * sp.pi / ell, big_k * (1 + log_k + log_k ** 2 / 2) * ell / sp.pi
        u, v = sp.Matrix([0, x2 / ell, 1, 0]), sp.Matrix([-x2 / ell, 0, 0, 1])
        g = d * sp.diag(1, 1, 0, 0) + c * (u * u.T + v * v.T)
        at = {ell: ell0, th: 0, x2: 0}
        dg = [g.diff(a) for a in coords]
        ddg = [[m.diff(b).subs(at) for b in coords] for m in dg]
        dg = [m.subs(at) for m in dg]
        g = g.subs(at)
        ginv = g.inv()
        # Gamma^a_bc, and R_abcd = (g_ad,bc + g_bc,ad - g_ac,bd - g_bd,ac)/2
        # + g_ef (Gamma^e_bc Gamma^f_ad - Gamma^e_bd Gamma^f_ac)
        low = [[[(dg[b][e, f] + dg[f][b, e] - dg[e][b, f]) / 2 for f in range(4)]
                for b in range(4)] for e in range(4)]
        gam = [[[sum(ginv[a, e] * low[e][b][f] for e in range(4)) for f in range(4)]
                for b in range(4)] for a in range(4)]
        quads = list(itertools.product(range(4), repeat=4))
        riem = {(a, b, e, f): (ddg[b][e][a, f] + ddg[a][f][b, e] - ddg[b][f][a, e]
                               - ddg[a][e][b, f]) / 2
                + sum(g[m, n] * (gam[m][b][e] * gam[n][a][f] - gam[m][b][f] * gam[n][a][e])
                      for m, n in itertools.product(range(4), repeat=2))
                for a, b, e, f in quads}
        riem = {key: val for key, val in riem.items() if val != 0}
        rm_sq = sum(val * riem[other] * ginv[key[0], other[0]] * ginv[key[1], other[1]]
                    * ginv[key[2], other[2]] * ginv[key[3], other[3]]
                    for key, val in riem.items() for other in riem
                    if all(ginv[i, j] != 0 for i, j in zip(key, other)))
        w = ell0 * (vr + sp.I * vi)
        q, p_im = 2 * sp.re(w), -2 * sp.im(w)
        want = (2 * sp.pi / (ell0 ** 3 * big_k)) ** 2 * (2 * sp.Abs(w) ** 2 + 6 * sp.re(w) + 6)
        assert sp.simplify(sp.expand(rm_sq - want)) == 0
        # II_ij = the normal part of Gamma^a_bc T_i^b T_j^c; |II|^2 = h^ik h^jl <II_ij, II_kl>
        tan = sp.Matrix([[0, 0], [0, -1], [1, 0], [0, slope]])
        hinv = (tan.T * g * tan).inv()
        proj = sp.eye(4) - tan * hinv * tan.T * g
        second = [[proj * sp.Matrix([sum(gam[a][b][f] * tan[b, i] * tan[f, j]
                                         for b, f in itertools.product(range(4), repeat=2))
                                     for a in range(4)]) for j in range(2)] for i in range(2)]
        pi_sq = sum(hinv[i, k] * hinv[j, n] * (second[i][j].T * g * second[k][n])[0]
                    for i, j, k, n in itertools.product(range(2), repeat=4))
        sigma = 2 * sp.pi ** 2 * slope ** 2 / (ell0 ** 2 * big_k)
        want = sp.pi / (4 * big_k * ell0 ** 3) * (
            (q / (1 + sigma) + 1) ** 2 + 3 + p_im ** 2 * sigma / (1 + sigma) ** 3)
        assert sp.simplify(sp.together(pi_sq - want)) == 0

    def test_closed_forms_match_the_jet(self):
        # against riemann_jet's R and slag._fundamental_forms on its Christoffel symbols,
        # which build both from g and its derivatives; kappa as _kappa_draw, planes of
        # drawn slope (none special where kappa != 1)
        rng = np.random.default_rng(47)
        for _ in range(40):
            p = sf.ModelParams(k=1, kappa=_kappa_draw(rng))
            ell, theta = rng.uniform(0.3, 50.0, 16), rng.uniform(-math.pi, math.pi, 16)
            slope = rng.normal(size=16) * 10.0 ** rng.uniform(-2.0, 2.0, 16)
            riem, gam, g, ginv = sf.riemann_jet(p, ell, theta)
            low = np.einsum("...ae,...ebcd->...abcd", g, riem)
            rm = np.sqrt(np.einsum("...abcd,...efgh,...ae,...bf,...cg,...dh->...", low, low,
                                   ginv, ginv, ginv, ginv, optimize=True))
            assert np.max(np.abs(sf.rm_norm(p, ell, theta) / rm - 1.0)) <= 1e-12
            tan = np.zeros((16, 4, 2))
            tan[:, 2, 0], tan[:, 1, 1], tan[:, 3, 1] = 1.0, -1.0, slope
            pi_sq = slag._fundamental_forms(g, gam, tan)[1]
            assert np.max(np.abs(slag.pi_norm_sq(p, ell, theta, slope) / pi_sq - 1.0)) <= 1e-12

    def test_gauss_terms_and_mean_curvature_in_closed_form(self):
        # what slag check reads of the jet, for the plane of d/dx1 and -d/dtheta + slope d/dx2:
        # K_ambient = -Pi = (pi/(4 K ell^3)) (2 + q/(1 + sigma)) and |H|^2 = (pi/(4 K ell^3))
        # (q^2 + sigma (q^2 + p^2))/(1 + sigma)^3, q, p and sigma as in pi_norm_sq.  So at
        # kappa = 1 (q = p = 0) every lift plane is minimal, special or not
        rng = np.random.default_rng(48)
        for kappa in [{}, *(_kappa_draw(rng) for _ in range(40))]:
            p = sf.ModelParams(k=1, kappa=kappa)
            ell, theta = rng.uniform(0.3, 50.0, 16), rng.uniform(-math.pi, math.pi, 16)
            slope = rng.normal(size=16) * 10.0 ** rng.uniform(-2.0, 2.0, 16)
            riem, gam, g, _ = sf.riemann_jet(p, ell, theta)
            tan = np.zeros((16, 4, 2))
            tan[:, 2, 0], tan[:, 1, 1], tan[:, 3, 1] = 1.0, -1.0, slope
            second, pi_sq, h_sq, hin = slag._fundamental_forms(g, gam, tan)
            area_sq = np.linalg.det(hin)
            t1, t2 = tan[..., 0], tan[..., 1]
            k_amb = np.einsum("...ae,...ebcd,...a,...b,...c,...d->...", g, riem, t1, t2, t1,
                              t2) / area_sq
            pi_term = (np.einsum("...a,...ab,...b->...", second[..., 0, 0], g, second[..., 1, 1])
                       - np.einsum("...a,...ab,...b->...", second[..., 0, 1], g,
                                   second[..., 0, 1])) / area_sq
            big_k, w = sf.kappa_log_jet(p, ell, theta)
            q, p_im = 2.0 * w.real, -2.0 * w.imag
            sigma = 2.0 * math.pi ** 2 * slope ** 2 / (ell ** 2 * big_k)
            unit = math.pi / (4.0 * big_k * ell ** 3)
            want = unit * (2.0 + q / (1.0 + sigma))
            assert np.max(np.abs(k_amb / want - 1.0)) <= 1e-14
            assert np.max(np.abs(-pi_term / want - 1.0)) <= 1e-14
            want = unit * (q * q + sigma * (q * q + p_im * p_im)) / (1.0 + sigma) ** 3
            assert np.max(np.abs(h_sq - want) / pi_sq) <= 1e-15

    def test_kappa_one_is_the_constants(self):
        ell = np.array([0.3, 5.0, 40.0, 40.0])
        p = sf.ModelParams(k=1)
        rm = sf.rm_norm(p, ell, 0.5)
        pi_sq = slag.pi_norm_sq(p, ell, 0.5, np.array([0.0, 3.0, 1e3, 1e150]))
        assert np.max(np.abs(rm * ell ** 3 / (TWO_PI * math.sqrt(6.0)) - 1.0)) <= 1e-15
        assert np.max(np.abs(pi_sq * ell ** 3 / math.pi - 1.0)) <= 1e-15

    def test_kappa_one_scalars_have_the_bits_of_the_arrays(self):
        # kappa_log_jet's (1.0, 0j) at kappa = 1 broadcast with the bits of kappa = 1 + 1e-300 z,
        # which takes the array path and whose term rounds away in K, in |Rm|'s radicand and in
        # |II|'s bracket, at the decay samples and at drawn points and slopes
        rng = np.random.default_rng(49)
        one, tiny_term = sf.ModelParams(k=1), sf.ModelParams(k=1, kappa={0: 1.0, 1: 1e-300})
        # a zero term is no term: kappa = 1 + 0 z is kappa = 1
        assert sf.ModelParams(k=1, kappa={0: 1.0, 1: 0.0, 2: 0j}).kappa_is_one()
        assert not tiny_term.kappa_is_one()
        assert sf.kappa_log_jet(one, sf.DECAY_ELLS, 0.0) == (1.0, 0j)
        ells = [(sf.DECAY_ELLS, 0.0), (sf.DECAY_ELLS, slag._THETA),
                (rng.uniform(0.3, 1e3, 64), rng.uniform(-7.0, 7.0, 64))]
        for ell, theta in ells:
            assert np.array_equal(sf.rm_norm(one, ell, theta), sf.rm_norm(tiny_term, ell, theta))
            for slope in (rng.normal(size=np.shape(ell)) * 10.0 ** rng.uniform(-3.0, 3.0),
                          0.0, 1e150):
                assert np.array_equal(slag.pi_norm_sq(one, ell, theta, slope),
                                      slag.pi_norm_sq(tiny_term, ell, theta, slope))

    def test_steep_plane_is_the_limit(self):
        # sigma -> inf leaves the bracket 1 + 3, |II|^2 = pi/(K ell^3)
        rng = np.random.default_rng(3)
        p = sf.ModelParams(k=1, kappa=_kappa_draw(rng))
        ell, theta = np.array([0.5, 5.0, 40.0]), np.array([-2.0, 0.1, 3.0])
        big_k = sf.kappa_log_jet(p, ell, theta)[0]
        with np.errstate(over="raise"):
            pi_sq = slag.pi_norm_sq(p, ell, theta, 1e150)
        assert np.max(np.abs(pi_sq * big_k * ell ** 3 / math.pi - 1.0)) <= 1e-15

    @pytest.mark.parametrize("decay", [sf.curvature_decay, sf.rm_norm, slag.pi_norm_sq])
    def test_vanishing_kappa_is_a_named_numerical_error(self, decay):
        # kappa = 1 - e^5 z vanishes at y = 5, the first decay sample, where the metric's
        # d = K ell/pi is 0: named as K = 0 before w = ell kappa_y/kappa divides by it
        p = sf.ModelParams(k=1, kappa={0: 1.0, 1: -math.exp(5.0)})
        args = {sf.curvature_decay: (p,), sf.rm_norm: (p, sf.DECAY_ELLS, 0.0),
                slag.pi_norm_sq: (p, sf.DECAY_ELLS, 0.0, 0.1)}[decay]
        with pytest.raises(NumericalError, match=r"K = \|kappa\(e\^-y\)\|\^2 = 0 at ell = 5:"):
            decay(*args)


def _plane_forms(sp, g, gam, tan):
    """(|II|^2, |H|^2) in sympy of the plane with chart tangents tan through a
    point where the metric is g and Gamma^a_bc = gam[a][b][c]."""
    hinv = (tan.T * g * tan).inv().applyfunc(sp.cancel)
    proj = (sp.eye(4) - tan * hinv * tan.T * g).applyfunc(sp.cancel)
    second = [sp.Matrix(2, 2, lambda i, j, n=n: sp.cancel(sum(
        proj[n, a] * gam[a][f][b] * tan[f, i] * tan[b, j]
        for a, b, f in itertools.product(range(4), repeat=3)))) for n in range(4)]
    raised = [(hinv * second[n] * hinv).applyfunc(sp.cancel) for n in range(4)]
    pi_sq = sum(g[n, q] * sp.cancel(sum(second[n][i, j] * raised[q][i, j]
                                        for i, j in itertools.product(range(2), repeat=2)))
                for n, q in itertools.product(range(4), repeat=2))
    mean = sp.Matrix([sp.cancel((second[n] * hinv).trace()) for n in range(4)])
    return sp.cancel(pi_sq), sp.cancel((mean.T * g * mean)[0, 0])


class TestNormalForm:
    def test_fields_and_scale(self):
        p = sf.ModelParams(k=3, eps=0.7, b0=0.25, alpha=1.5, kappa={0: 1.0, 1: 0.5})
        # b0 leaves through twist_slope's isometry: the normal form has b0 = 0
        p1, s = sf.normal_form(p)
        assert p1 == sf.ModelParams(k=1, kappa={0: 1.0, 1: 0.5})
        assert s == 0.7 / 3 / 1.5
        assert sf.normal_form(p1) == (p1, 1.0)
        assert sf.twist_slope(p, 2.0) == 0.7 / 3 * 0.25 * 2.0 / (2.0 * math.pi ** 2)

    def test_overflowing_b0_is_numerical(self):
        # b0' = (eps/k) b0 overflows in the slope of the isometry, not in the normal form
        p = sf.ModelParams(k=1, eps=1e300, b0=1e10)
        assert sf.normal_form(p) == (sf.ModelParams(k=1), 1e300)
        with pytest.raises(NumericalError, match="normal-form b0"):
            sf.twist_slope(p, 5.0)

    def test_homothety_and_scale_factors_symbolically(self):
        # g = (alpha/lambda) Phi^* g1 for any kappa; then, for kappa = 1, |Rm|
        # scales by s = eps/(k alpha) and a plane's sectional curvature K, |II|
        # and |H| by s, sqrt(s) and sqrt(s) (squares compared), at x2 = 0
        sp = pytest.importorskip("sympy")
        ell, th, x1, x2 = coords = sp.symbols("ell theta x1 x2", real=True)
        k, eps, alpha = sp.symbols("k eps alpha", positive=True)
        b0, m = sp.symbols("b0 m", real=True)
        lam, s = eps / k, eps / (k * alpha)

        def metric(k, eps, alpha, b0, x2, kap2=1):
            w = 2 * sp.pi / (k * ell)
            c, d = w * eps, 2 * kap2 / (eps * w)
            g_r, g_i = b0 * ell / (2 * sp.pi ** 2), x2 / ell
            u, v = sp.Matrix([-g_r, g_i, 1, 0]), sp.Matrix([-g_i, -g_r, 0, 1])
            return alpha * (d * sp.diag(1, 1, 0, 0) + c * (u * u.T + v * v.T))

        kap2 = sp.Function("K")(ell, th)  # |kappa(e^-y)|^2
        jac = sp.diag(1, 1, lam, lam)
        g1 = metric(1, 1, 1, lam * b0, lam * x2, kap2)
        assert sp.simplify(metric(k, eps, alpha, b0, x2, kap2)
                           - alpha / lam * jac.T * g1 * jac) == sp.zeros(4, 4)
        g = metric(k, eps, alpha, b0, x2)
        ginv = g.inv().applyfunc(sp.cancel)
        dg = [g.diff(a) for a in coords]
        gam = [[[sp.cancel(sum(ginv[a, e] * (dg[b][e, f] + dg[f][b, e] - dg[e][b, f])
                               for e in range(4)) / 2) for f in range(4)] for b in range(4)]
               for a in range(4)]
        at = {x2: 0}
        dgam = [[[[sp.diff(gam[a][b][f], coords[c]).subs(at) for f in range(4)]
                  for b in range(4)] for a in range(4)] for c in range(4)]
        gam = [[[v.subs(at) for v in row] for row in mat] for mat in gam]
        g, ginv = g.subs(at), ginv.subs(at)
        riem = {(a, b, c, d): sp.cancel(dgam[c][a][d][b] - dgam[d][a][c][b] + sum(
            gam[a][c][e] * gam[e][d][b] - gam[a][d][e] * gam[e][c][b] for e in range(4)))
            for a, b, c, d in itertools.product(range(4), repeat=4)}
        low = {key: sum(g[key[0], e] * riem[(e,) + key[1:]] for e in range(4)) for key in riem}
        rm_sq = sp.cancel(sum(
            low[a, b, c, d] * ginv[b, p] * ginv[c, q] * ginv[d, r] * riem[a, p, q, r]
            for a, b, c, d, p, q, r in itertools.product(range(4), repeat=7)
            if riem[a, p, q, r] != 0 and low[a, b, c, d] != 0))
        # a cycle's plane: x1 and -theta + m x2, whose image under Phi has slope lambda m
        tan = sp.Matrix([[0, 0], [0, -1], [1, 0], [0, m]])
        t1, t2 = tan[:, 0], tan[:, 1]
        k_amb = sp.cancel(sum(low[a, b, c, d] * t1[a] * t2[b] * t1[c] * t2[d]
                              for a, b, c, d in itertools.product(range(4), repeat=4))
                          / (tan.T * g * tan).det())
        pi_sq = _plane_forms(sp, g, gam, tan)[0]
        # H vanishes on that plane; tilted by d/dell it does not (b0 = 0 keeps it short)
        zero = {b0: 0}
        h_sq = _plane_forms(sp, g.subs(zero), [[[v.subs(zero) for v in row] for row in mat]
                                               for mat in gam],
                            sp.Matrix([[0, 1], [0, -1], [1, 0], [0, m]]))[1]
        assert h_sq != 0
        normal = {k: 1, eps: 1, alpha: 1, b0: lam * b0, m: lam * m}
        for value, power in ((rm_sq, 2), (k_amb, 1), (pi_sq, 1), (h_sq, 1)):
            assert sp.cancel(value - s ** power * value.subs(normal, simultaneous=True)) == 0
        # |Rm| r^2 = RM_R2 with r = (2/3) sqrt(pi/s)/pi ell^(3/2)
        assert sp.cancel(rm_sq * ell ** 6 / (24 * sp.pi ** 2 * s ** 2)) == 1
        assert sf.RM_R2 ** 2 == pytest.approx(24.0 * (2.0 / 3.0) ** 4, rel=1e-15)


def _sympy_omega(sp, coords, b0, x2):
    """omega = alpha ((i/2) d dy ^ dybar + (i/2) c a ^ abar), a = dx - Gamma dy, as a 4 x 4
    sympy matrix, with k, eps, alpha and |kappa(e^-y)|^2 symbolic."""
    ell, th = coords[:2]
    k, eps, alpha = sp.symbols("k eps alpha", positive=True)
    kap2 = sp.Function("K", positive=True)(ell, th)
    dy, dx = sp.Matrix([1, sp.I, 0, 0]), sp.Matrix([0, 0, 1, sp.I])
    w = 2 * sp.pi / (k * ell)
    c, d = w * eps, 2 * kap2 / (eps * w)
    a = dx - (sp.I * x2 / ell + b0 * ell / (2 * sp.pi ** 2)) * dy
    wedge = lambda u: u * u.conjugate().T - u.conjugate() * u.T  # noqa: E731
    return alpha * sp.I / 2 * (d * wedge(dy) + c * wedge(a))


# (t1, t2) of the lift's point over slag._THETA, where slag takes |II|
_T_II = np.array([0.2, -slag._THETA])


class TestTwistIsometry:
    def test_pullback_of_b0_zero_is_the_b0_form_symbolically(self):
        # Phi(x) = x - b0 y^2/(4 pi^2) pulls omega_0 back to omega_b0, with k, eps, alpha,
        # b0 and |kappa|^2 symbolic, and adds b0 ell/(2 pi^2) to the x2-slope of
        # -d/dtheta + s d/dx2
        sp = pytest.importorskip("sympy")
        ell, th, x1, x2 = coords = sp.symbols("ell theta x1 x2", real=True)
        b0, s = sp.symbols("b0 s", real=True)
        y2 = sp.expand((ell + sp.I * th) ** 2)
        phi = sp.Matrix([ell, th, x1 - b0 * sp.re(y2) / (4 * sp.pi ** 2),
                         x2 - b0 * sp.im(y2) / (4 * sp.pi ** 2)])
        jac = phi.jacobian(coords)
        pulled = jac.T * _sympy_omega(sp, coords, 0, phi[3]) * jac
        assert (pulled - _sympy_omega(sp, coords, b0, x2)).applyfunc(sp.simplify) \
            == sp.zeros(4, 4)
        assert sp.simplify((jac * sp.Matrix([0, -1, 0, s]))[3] - s
                           - b0 * ell / (2 * sp.pi ** 2)) == 0
        assert sf.twist_slope(sf.ModelParams(k=1, b0=0.3), 5.0) == 0.3 * 5.0 / (2 * math.pi ** 2)

    @pytest.mark.parametrize("b0", [-1e3, -10.0, -0.3, 0.25, 7.0, 10.0, 1e3])
    def test_b0_is_the_twist_isometry(self, b0):
        # the finite-difference oracle takes the b0 model itself, untwisted; the jet
        # takes b0 = 0 at the base point.  |II| at 1e-5 over b0 in +-1e3; |Rm| at the
        # curvature sweep's 3e-5 where central differences resolve it, |b0| <= 10 (the
        # b0 metric's third derivatives grow as b0^2: at b0 = 100 the best step leaves
        # 1e-3, while the jet at b0 = 0 is exact)
        kappa = {0: 1.0, 1: 0.5 - 0.3j}
        p = sf.ModelParams(k=1, b0=b0, kappa=kappa)
        gf = functools.partial(sf.riemannian_metric_chart, p)
        if abs(b0) <= 10.0:
            q = np.array([[3.0, 0.4, 0.1, -0.5], [7.5, -1.2, 0.3, 1.1], [20.0, 2.0, -0.7, 0.2]])
            riem, _, g, _ = sf.riemann_jet(sf.ModelParams(k=1, kappa=kappa), q[:, 0], q[:, 1])
            for i, pt in enumerate(q):
                riem_fd, _, g_fd = sf.riemann_fd(gf, pt, 1e-2 * min(1.0, 10.0 / pt[0]))
                assert _rm_norm(riem_fd, g_fd) == pytest.approx(_rm_norm(riem[i], g[i]),
                                                                rel=3e-5, abs=0.0)
        for cycle, ell in itertools.product((fib.CycleSpec(1, 0), fib.CycleSpec(2, 1),
                                             fib.CycleSpec(3, -2)), (0.5, 4.0, 40.0)):
            origin, tan = cycle.lift(1.0, ell)
            q = origin + tan @ _T_II
            gam = sf.christoffel_fd(gf, q, 2e-3 * min(1.0, 10.0 / max(ell, 1.0)))
            pi_fd = math.sqrt(slag._fundamental_forms(gf(q), gam, tan)[1])
            jet = slag.second_fundamental_form(slag.ModelFiber(p, cycle, ell)).pi_norm
            assert pi_fd == pytest.approx(jet, rel=1e-5, abs=0.0)


class TestShearIsometry:
    def test_pullback_of_omega_is_omega_symbolically(self):
        # on b0 = 0, Phi(x) = x + i a y moves x1 by -a theta and x2 by a ell, and
        # Phi^* omega = omega with k, eps, alpha, a and |kappa|^2 symbolic; Phi is linear
        # in the chart, fixes d/dx1 and d/dx2, and moves -d/dtheta + s d/dx2 by a d/dx1,
        # so it keeps every plane that contains d/dx1 and no d/dell
        sp = pytest.importorskip("sympy")
        ell, th, x1, x2 = coords = sp.symbols("ell theta x1 x2", real=True)
        a, s = sp.symbols("a s", real=True)
        phi = sp.Matrix([ell, th, x1 - a * th, x2 + a * ell])
        jac = phi.jacobian(coords)
        pulled = jac.T * _sympy_omega(sp, coords, 0, phi[3]) * jac
        assert (pulled - _sympy_omega(sp, coords, 0, x2)).applyfunc(sp.simplify) \
            == sp.zeros(4, 4)
        assert jac * sp.Matrix([0, -1, 0, s]) == sp.Matrix([0, -1, a, s])
        assert jac[:, 2:] == sp.eye(4)[:, 2:]

    @pytest.mark.parametrize("kappa", [{}, {0: 1.0, 1: 0.5 - 0.3j}])
    def test_jet_at_x2_zero_is_the_oracle_at_x2(self, kappa):
        # the finite-difference oracle on riemannian_metric_chart at x2 != 0, the jet at
        # the base point: |Rm| at the curvature sweep's 3e-5 and the |II| of span(d/dx1,
        # -d/dtheta + s d/dx2) at 1e-5, the fd tolerances of test_b0_is_the_twist_isometry
        p = sf.ModelParams(k=1, kappa=kappa)
        gf = functools.partial(sf.riemannian_metric_chart, p)
        q = np.array([[3.0, 0.4, 0.1, -2.5], [7.5, -1.2, 0.3, 6.0], [20.0, 2.0, -0.7, -15.0]])
        riem, gam, g, _ = sf.riemann_jet(p, q[:, 0], q[:, 1])
        for i, pt in enumerate(q):
            riem_fd, _, g_fd = sf.riemann_fd(gf, pt, 1e-2 * min(1.0, 10.0 / pt[0]))
            assert _rm_norm(riem_fd, g_fd) == pytest.approx(_rm_norm(riem[i], g[i]),
                                                            rel=3e-5, abs=0.0)
            for slope in (0.0, 0.4, -3.0):
                tan = np.array([[0.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, slope]])
                gam_fd = sf.christoffel_fd(gf, pt, 2e-3 * min(1.0, 10.0 / pt[0]))
                pi_fd = slag._fundamental_forms(gf(pt), gam_fd, tan)[1]
                pi_jet = slag._fundamental_forms(g[i], gam[i], tan)[1]
                assert math.sqrt(pi_fd) == pytest.approx(math.sqrt(pi_jet), rel=1e-5, abs=0.0)


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
        riem, gam_q, _ = sf.riemann_fd(_sphere_metric, q, h)
        assert np.array_equal(gam_q, gam)
        for i in range(len(q)):
            assert np.array_equal(gam[i], sf.christoffel_fd(_sphere_metric, q[i], h[i]))
            assert np.array_equal(riem[i], sf.riemann_fd(_sphere_metric, q[i], h[i])[0])

    @pytest.mark.parametrize("theta", [0.5, 1.1, 2.4])
    def test_sphere_gaussian_curvature_is_one(self, theta):
        riem, _, g = sf.riemann_fd(_sphere_metric, np.array([theta, 0.3]), self.H)
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
            riem, gam_q, g = sf.riemann_fd(gf, q, h)
            assert np.array_equal(gam_q, gam)
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
