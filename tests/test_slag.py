import cmath
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from syzlab import cli
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

    @pytest.mark.parametrize("eps", [1e308, 1e307, 1e-300])
    def test_float_range_ends(self, eps):
        # lambda = eps/k comes before pi eps, which overflows past eps = 5.7e307,
        # and the Rayleigh quotient squares no step h = L/64 (h^2 leaves float range)
        geom = slag.fiber_geometry(slag.ModelFiber(sf.ModelParams(k=1, eps=eps), C10, 10.0))
        assert geom.a_coef * geom.b_coef == pytest.approx(2.0, rel=1e-15)
        assert geom.lambda1 == pytest.approx(min(math.pi * eps / 10.0, 20.0 * math.pi / eps),
                                             rel=1e-15)
        num = slag.lambda1_rayleigh(geom.a_coef, geom.b_coef)
        assert abs(num - geom.lambda1) / geom.lambda1 <= 0.02

    @pytest.mark.parametrize("eps,ell", [(1e-300, 1e8), (1.0, 2e307), (1e-307, 10.0)])
    def test_side_square_past_float_range(self, eps, ell):
        # the side 2 pi sqrt(a) squares past float range while lambda1 = 1/a is
        # a normal float: the quotient divides by the side twice instead
        geom = slag.fiber_geometry(slag.ModelFiber(sf.ModelParams(k=1, eps=eps), C10, ell))
        assert 4.0 * math.pi ** 2 * geom.a_coef == math.inf
        assert geom.lambda1 == 1.0 / geom.a_coef > 2.2250738585072014e-308
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

    def test_non_trivial_kappa_rejected(self, capsys):
        # the closed form is the kappa = 1 torus; --kappa1 0.5 printed it
        # bit for bit before
        p = sf.ModelParams(k=1, kappa={0: 1.0, 1: 0.5})
        with pytest.raises(ValidationError, match="kappa"):
            slag.fiber_geometry(slag.ModelFiber(p, C10, 10.0))
        assert cli.run(["slag", "geometry", "--k", "1", "--kappa1", "0.5"]) == 1
        assert "kappa" in capsys.readouterr().err


# dy and dx as complex covectors of the chart (ell, theta, x1, x2)
_DY = np.array([1.0, 1.0j, 0.0, 0.0])
_DX = np.array([0.0, 0.0, 1.0, 1.0j])


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
            om = p.kappa_at(cmath.exp(-(q[0] + 1j * q[1]))) * wedge_11(_DY, _DX)
            sup_phase = max(sup_phase, abs((-1j * complex(t_a @ om @ t_b)).imag))
    return sup_omega, sup_phase


def _check_special_grid(mf, x2=True):
    """Oracle of check_special: both sups over the full 32 x 32 grid of the lift
    in eps, from 4 x 4 forms of the normal form with b0' = (eps/k) b0, not mapped
    to b0 = 0 by twist_slope's isometry, contracted with the tangents.
    x2=False takes the forms at x2 = 0, where c g_r and c, the only entries the
    contraction reads, are the same, and reads row t_a = d/dx1 alone: d and
    d + c |Gamma|^2, which it does not read, may overflow there."""
    p = mf.params
    with np.errstate(over="raise" if x2 else "ignore"):
        q, t_a, t_b = mf.cycle.lift_grid(p.eps, mf.ell, 32)
    sf.twist_slope(p, mf.ell)  # its NumericalError where b0' overflows
    p1 = sf.ModelParams(k=1, b0=p.eps / p.k * p.b0, kappa=p.kappa)
    if x2:
        omega_ab = t_a @ sf.sf_form_chart(p1, q) @ t_b
    else:
        assert t_a.tolist() == [0.0, 0.0, 1.0, 0.0]
        q[..., 3] = 0.0
        with np.errstate(over="ignore"):
            # a contiguous row, as t_a @ forms is, so that the matmul sums as it does there
            omega_ab = np.ascontiguousarray(sf.sf_form_chart(p1, q)[..., 2, :]) @ t_b
    sup_omega = np.max(np.abs(omega_ab))
    val = p.kappa_of_y(q[..., 0], q[..., 1]) * (t_a @ wedge_11(_DY, _DX) @ t_b)
    return p.alpha * float(sup_omega), float(np.max(np.abs((-1j * val).imag)))


def _special_outcome(check, mf):
    """The bits of check(mf), NaN as one value, or the exception it raises, under
    the CLI's np.errstate."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            values = check(mf)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    return tuple("nan" if v != v else v.hex() for v in values)


def _power(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


_SIGNED = st.one_of(st.just(0.0), st.builds(lambda x, neg: -x if neg else x,
                                            _power(-300.0, 200.0), st.booleans()))
# kappa = 1, 1 + kappa1 z, 1 + 0.3 z^2 and a complex coefficient
_KAPPA = st.one_of(st.just({}), st.floats(-50.0, 50.0).map(lambda c: {0: 1.0, 1: c}),
                   st.just({0: 1.0, 2: 0.3}),
                   st.builds(lambda re, im: {0: 1.0, 1: complex(re, im)},
                             st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)))
_SPECIAL_FIBERS = st.builds(
    lambda k, eps, b0, alpha, kappa, cycle, ell: slag.ModelFiber(
        sf.ModelParams(k=k, eps=eps, b0=b0, alpha=alpha, kappa=kappa),
        fib.CycleSpec(*cycle), ell),
    st.integers(1, 12), _power(-300.0, 300.0), _SIGNED, _power(-3.0, 3.0), _KAPPA,
    st.sampled_from([(1, 0), (1, 1), (2, 1), (3, -2), (3, 1), (1, -1)]),
    _power(math.log10(0.5), 308.0))


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

    @settings(max_examples=400, deadline=None)
    @given(_SPECIAL_FIBERS)
    @example(slag.ModelFiber(sf.ModelParams(k=1, eps=1e155), fib.CycleSpec(1, 1), 1.0))
    @example(slag.ModelFiber(sf.ModelParams(k=1, eps=1e300), fib.CycleSpec(1, 1), 10.0))
    def test_base_angles_match_full_grid_bitwise(self, mf):
        # t_a moves x1 alone, on which nothing depends, and omega(t_a, t_b) reads
        # entries that depend on ell alone: one node and the 32 base angles give
        # the grid's bits, and the exceptions it raises, except where the grid
        # alone overflowed on x2 = s t2 (x2 = 0 at the origin) or on an entry the
        # contraction does not read; there they give the bits of the read entries
        # at x2 = 0, or an overflow where those are not finite
        got = _special_outcome(slag.check_special, mf)
        want = _special_outcome(_check_special_grid, mf)
        if got != want:
            assert want[0] is FloatingPointError
            read = _special_outcome(functools.partial(_check_special_grid, x2=False), mf)
            assert got == read or (got[0] is FloatingPointError and read[0] in ("inf", "nan"))

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


# (t1, t2) of the lift's point over slag._THETA, where slag takes |II|
_T_II = np.array([0.2, -slag._THETA])


def _fd_step(ell):
    """Finite-difference step of the oracle at radius ell."""
    return 2e-3 * min(1.0, 10.0 / max(ell, 1.0))


def _intrinsic_curvature_fd(mf):
    """Gaussian curvature of the induced metric at _T_II from a riemann_fd
    stencil on the pulled-back metric t -> T^t g(origin + T t) T."""
    p = mf.params
    origin, tan = mf.cycle.lift(p.k, mf.ell)

    def induced(tt):
        return tan.T @ sf.riemannian_metric_chart(p, origin + tt @ tan.T) @ tan

    riem, _, h2 = sf.riemann_fd(induced, _T_II, _fd_step(mf.ell))
    low = np.einsum("ae,ebcd->abcd", h2, riem)
    return float(low[0, 1, 0, 1]) / float(np.linalg.det(h2))


def _fundamental_forms_einsum(g, gam, tan):
    """Reference for slag._fundamental_forms: its einsum contractions."""
    tan_t = np.swapaxes(tan, -1, -2)
    hin = tan_t @ g @ tan
    hinv = np.linalg.inv(hin)
    proj_n = np.eye(4) - tan @ hinv @ tan_t @ g
    nab = np.einsum("...ci,...bj,...acb->...aij", tan, tan, gam)
    second = np.einsum("...na,...aij->...nij", proj_n, nab)
    pi_sq = np.einsum("...nij,...mkl,...ik,...jl,...nm->...",
                      second, second, hinv, hinv, g)
    mean = np.einsum("...nij,...ij->...n", second, hinv)
    h_sq = np.einsum("...n,...nm,...m->...", mean, g, mean)
    return second, pi_sq, h_sq, hin


# kappa1 != 0, a non-special b0 and m2 < 0 among the cycles, small to large ell
_FLAT_GRID = [
    slag.ModelFiber(sf.ModelParams(k=k, eps=eps, b0=b0, kappa=kappa),
                    fib.CycleSpec(m1=m1, m2=m2), ell)
    for k in (1, 3) for eps in (1e-3, 1.0, 1e3) for b0 in (0.0, 0.37)
    for kappa in ({}, {0: 1.0, 1: 0.6 - 0.2j})
    for m1, m2 in ((1, 0), (3, -2), (2, 1)) for ell in (0.5, 4.0, 40.0)]


class TestSecondFundamentalForm:
    def test_mean_curvature_vanishes(self):
        ff = slag.second_fundamental_form(slag.ModelFiber(STD, C10, 10.0))
        assert ff.h_norm <= 1e-8

    def test_gauss_equation(self):
        ff = slag.second_fundamental_form(slag.ModelFiber(STD, C10, 10.0))
        assert ff.gauss_residual <= 1e-6

    @pytest.mark.parametrize("ell,fails", [(4.1e102, False), (4.2e102, True),
                                           (8.2e102, True)])
    def test_gauss_terms_in_normal_range(self, ell, fails):
        # K_ambient = |II|^2/2 = pi/(2 ell^3) reaches 2^-1022 at ell about
        # 4.13e102, below the metric jet's own bound (8.27e102)
        mf = slag.ModelFiber(STD, C10, ell)
        if fails:
            with pytest.raises(NumericalError, match="Gauss term"):
                slag.second_fundamental_form(mf)
        else:
            ff = slag.second_fundamental_form(mf)
            assert ff.pi_norm ** 2 * ell ** 3 == pytest.approx(math.pi, rel=1e-12)

    @pytest.mark.parametrize("k,eps", [(2, 0.5), (1, 1e-300), (3, 1e300)])
    def test_gauss_bound_depends_on_ell_alone(self, k, eps):
        # the Gauss terms are taken on the normal form, so the bound is the
        # one of STD whatever k and eps (it moved with eps/k before)
        p = sf.ModelParams(k=k, eps=eps)
        ff = slag.second_fundamental_form(slag.ModelFiber(p, C10, 4.1e102))
        assert ff.pi_norm * sf.distance_r(p, 4.1e102) == pytest.approx(slag.II_R, rel=1e-12)
        for ell, match in ((4.2e102, "Gauss term"), (8.4e102, "metric jet")):
            with pytest.raises(NumericalError, match=match):
                slag.second_fundamental_form(slag.ModelFiber(p, C10, ell))

    def test_pi_decay_against_r(self):
        r, vals, fit = slag.pi_decay(STD, C10)
        assert -1.15 <= fit.exponent <= -0.85
        assert fit.r_squared >= 0.99
        assert np.max(np.abs(vals * r / slag.II_R - 1.0)) <= 1e-14

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

    def test_stencil_gamma_is_christoffel_fd(self):
        # the finite-difference oracle takes Gamma from riemann_fd's stencil:
        # it must be the bits of a christoffel_fd call of its own
        for mf in _FLAT_GRID:
            p = mf.params
            origin, tan = mf.cycle.lift(p.k, mf.ell)
            q, h = origin + tan @ _T_II, _fd_step(mf.ell)
            gf = functools.partial(sf.riemannian_metric_chart, p)
            _, gam, g = sf.riemann_fd(gf, q, h)
            assert np.array_equal(gam, sf.christoffel_fd(gf, q, h))
            assert np.array_equal(g, gf(q))

    def test_intrinsic_curvature_pass_is_exactly_zero(self):
        # the stencil second_fundamental_form does not run: K_int = 0 in
        # closed form, and the pass reads exactly 0.0, so the Gauss residual
        # |0 - (k_amb + pi_term)| keeps its bits
        for mf in _FLAT_GRID:
            assert _intrinsic_curvature_fd(mf) == 0.0

    def test_induced_metric_is_flat_symbolically(self):
        sp = pytest.importorskip("sympy")
        t1, t2, ell, s, eps, alpha, k, b0 = sp.symbols(
            "t1 t2 ell s eps alpha k b0", positive=True)
        kap2 = sp.Function("kap2")(t2)  # |kappa(e^{-ell + i t2})|^2
        w = 2 * sp.pi / (k * ell)
        c, d = w * eps, 2 * kap2 / (eps * w)
        g_r, g_i = b0 * ell / (2 * sp.pi ** 2), s * t2 / ell
        # alpha (d |dy|^2 + c |dx - Gamma dy|^2) on dy = -i dt2 and
        # dx = dt1 + i s dt2: rows Re and Im, columns dt1 and dt2
        dy = sp.Matrix([[0, 0], [0, -1]])
        dx = sp.Matrix([[1, 0], [0, s]])
        gam = sp.Matrix([[g_r, -g_i], [g_i, g_r]])
        a = dx - gam * dy
        h = alpha * (d * dy.T * dy + c * a.T * a)
        big_a = alpha * c
        assert sp.simplify(h - sp.Matrix([
            [big_a, -big_a * g_i],
            [-big_a * g_i, big_a * g_i ** 2 + alpha * (d + c * (g_r + s) ** 2)]])) \
            == sp.zeros(2, 2)
        assert not sp.diff(big_a, t2)
        # Brioschi's formula for E dt1^2 + 2F dt1 dt2 + G dt2^2 with E constant
        # and F, G functions of t2 alone: K = 0
        e_, f_, g_ = h[0, 0], h[0, 1], h[1, 1]
        det = e_ * g_ - f_ ** 2
        m1 = sp.Matrix([
            [-sp.diff(e_, t2, t2) / 2 + sp.diff(f_, t1, t2) - sp.diff(g_, t1, t1) / 2,
             sp.diff(e_, t1) / 2, sp.diff(f_, t1) - sp.diff(e_, t2) / 2],
            [sp.diff(f_, t2) - sp.diff(g_, t1) / 2, e_, f_],
            [sp.diff(g_, t2) / 2, f_, g_]])
        m2 = sp.Matrix([[0, sp.diff(e_, t2) / 2, sp.diff(g_, t1) / 2],
                        [sp.diff(e_, t2) / 2, e_, f_],
                        [sp.diff(g_, t1) / 2, f_, g_]])
        assert sp.simplify((m1.det() - m2.det()) / det ** 2) == 0

    def test_one_stuck_point_fails_the_sweep(self):
        # the metric jet's C_ell,ell = 4 pi/ell^3 underflows at ell = 1e308;
        # pi_decay samples fixed ells, so the guard is checked where ell is free
        with pytest.raises(NumericalError, match="below float64's normal range"):
            slag.second_fundamental_form(slag.ModelFiber(STD, C10, 1e308))

    @pytest.mark.parametrize("ell", [0.5, 3.0, 4.0, 40.0])
    def test_mean_curvature_is_rounding_level_at_every_ell(self, ell):
        # the low-ell cycles the finite-difference stencil failed (|H| 1e-8)
        for cycle, b0 in ((C10, 0.0), (fib.CycleSpec(m1=2, m2=1), -0.25)):
            mf = slag.ModelFiber(sf.ModelParams(k=1, eps=0.5, b0=b0), cycle, ell)
            ff = slag.second_fundamental_form(mf)
            assert ff.h_norm <= 1e-15 * ff.pi_norm
            assert ff.pi_norm * sf.distance_r(mf.params, ell) == pytest.approx(slag.II_R,
                                                                              rel=1e-14)

    @pytest.mark.parametrize("k,eps", [(1, 0.5), (2, 1.0), (3, 2.0)])
    def test_fundamental_forms_match_einsum_oracle(self, k, eps):
        # special Lagrangian cycles of the benchmark's ranges, one batch of ells;
        # H is rounding noise, so it is compared on the scale of |II|^2
        # (on their b0 = 0 normal forms at the base points, with the twisted lift's
        # tangents, as second_fundamental_form takes them)
        ells = np.array([3.0, 3.5, 4.0, 6.0, 10.0, 25.0, 40.0])
        for m1, m2 in ((1, 0), (1, 1), (2, 1)):
            p = sf.ModelParams(k=k, eps=eps, b0=-k * m2 / (2 * m1))
            cycle = fib.CycleSpec(m1=m1, m2=m2)
            tan = cycle.lift(eps, ells)[1]
            tan[..., 3, 1] += sf.twist_slope(p, ells)
            _, gam, g, _ = sf.riemann_jet(sf.normal_form(p)[0], ells, slag._THETA)
            second, pi_sq, h_sq, hin = slag._fundamental_forms(g, gam, tan)
            ref = _fundamental_forms_einsum(g, gam, tan)
            assert np.max(np.abs(second - ref[0])) <= 1e-15 * np.max(np.abs(ref[0]))
            assert np.max(np.abs(pi_sq / ref[1] - 1.0)) <= 1e-15
            assert np.max(np.abs(h_sq - ref[2]) / pi_sq) <= 1e-15
            assert np.array_equal(hin, ref[3])

    def test_pi_norm_r_is_two_thirds_symbolically(self):
        # |II|^2 r^2 = 4/9 and H = 0 at every point of every special
        # Lagrangian cycle of a kappa = 1 model: T2 = -d/dtheta + s d/dx2 with
        # s = -g_r, for any k, eps, alpha and b0
        sp = pytest.importorskip("sympy")
        ell, th, x1, x2 = coords = sp.symbols("ell theta x1 x2", real=True)
        k, eps, alpha = sp.symbols("k eps alpha", positive=True)
        b0 = sp.Symbol("b0", real=True)
        w = 2 * sp.pi / (k * ell)
        c, d = w * eps, 2 / (eps * w)
        g_r, g_i = b0 * ell / (2 * sp.pi ** 2), x2 / ell
        u = sp.Matrix([-g_r, g_i, 1, 0])
        v = sp.Matrix([-g_i, -g_r, 0, 1])
        g = alpha * (d * sp.diag(1, 1, 0, 0) + c * (u * u.T + v * v.T))
        ginv = g.inv().applyfunc(sp.cancel)
        dg = [g.diff(a) for a in coords]
        gam = [[[sp.cancel(sum(ginv[a, e] * (dg[b][e, f] + dg[f][b, e] - dg[e][b, f])
                               for e in range(4)) / 2)
                 for f in range(4)] for b in range(4)] for a in range(4)]
        tan = sp.Matrix([[0, 0], [0, -1], [1, 0], [0, -g_r]])
        hin = (tan.T * g * tan).applyfunc(sp.cancel)
        hinv = hin.inv().applyfunc(sp.cancel)
        proj = sp.eye(4) - tan * hinv * tan.T * g
        nab = [sp.Matrix(2, 2, lambda i, j, a=a: sum(gam[a][f][b] * tan[f, i] * tan[b, j]
                                                    for b in range(4) for f in range(4)))
               for a in range(4)]
        second = [sp.Matrix(2, 2, lambda i, j, n=n: sp.cancel(
            sum(proj[n, a] * nab[a][i, j] for a in range(4)))) for n in range(4)]
        pi_sq = sum(g[n, m] * (second[n].T * hinv * second[m] * hinv).trace()
                    for n in range(4) for m in range(4))
        r_sq = sp.Rational(4, 9) * alpha * k / (sp.pi * eps) * ell ** 3
        assert sp.cancel(pi_sq * r_sq) == sp.Rational(4, 9)
        assert all(sp.cancel((second[n] * hinv).trace()) == 0 for n in range(4))
        assert slag.II_R == 2.0 / 3.0

    def test_kappa_one_reads_the_bracket_as_four(self):
        # pi_norm_sq's general bracket, written out at K = 1 and w = 0, is exactly 4 at every
        # slope a lift forms: x2_slope's (m2/m1) (eps/2 pi) ell / 2 pi stays below fmax/(2 pi)
        # and twist_slope's b0' ell/(2 pi^2) below fmax/(2 pi^2), or they raise, so |slope| <=
        # top = 3.77e307, where a = sqrt(2) pi slope is still finite
        fmax = np.finfo(float).max
        top = fmax / slag.TWO_PI + fmax / (2.0 * math.pi ** 2)
        rng = np.random.default_rng(50)
        slopes = np.concatenate(([0.0, 5e-324, 1.0, top], np.geomspace(1e-300, top, 59)))
        slopes = np.concatenate((slopes, -slopes))
        one = sf.ModelParams(k=1, eps=3.0, b0=-2.0, alpha=5.0)

        def general(ell, slope):
            a, b = math.sqrt(2.0) * math.pi * slope, ell * np.sqrt(1.0)
            h = np.hypot(a, b)
            t = (b / h) ** 2
            bracket = (0.0 * t + 1.0) ** 2 + 3.0 + -0.0 * -0.0 * (a / h) ** 2 * t * t
            assert np.all(bracket == 4.0)
            return math.pi / (4.0 * 1.0 * ell ** 3) * bracket

        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for ell in (sf.DECAY_ELLS, rng.uniform(0.3, 1e3, 10)):
                for theta in (slag._THETA, rng.uniform(-7.0, 7.0, 10)):
                    for slope in slopes:
                        want = general(ell, slope)
                        assert np.array_equal(slag.pi_norm_sq(one, ell, theta, slope), want)
                    for slope in slopes.reshape(-1, 2):
                        pair = np.repeat(slope, 5)
                        want = general(ell, pair)
                        assert np.array_equal(slag.pi_norm_sq(one, ell, theta, pair), want)
            for ell, slope in zip(rng.uniform(0.3, 1e3, 40).tolist(), rng.permutation(slopes)):
                got, want = slag.pi_norm_sq(one, ell, -0.7, float(slope)), general(ell, slope)
                assert isinstance(got, float) and got.hex() == float(want).hex()
        # the bounds are reached: x2_slope at eps = 2.8e307 and twist_slope at b0' = 4.4e306
        # come within 3 % of them over the decay samples, and 2.9e307 and 4.6e306 raise
        c11 = fib.CycleSpec(m1=1, m2=1)
        with np.errstate(over="raise"):
            assert fmax / slag.TWO_PI / 1.02 < np.max(c11.x2_slope(2.8e307, sf.DECAY_ELLS))
            assert np.max(sf.twist_slope(sf.ModelParams(k=1, b0=4.4e306), sf.DECAY_ELLS)) \
                > fmax / (2.0 * math.pi ** 2) / 1.03
            with pytest.raises(FloatingPointError):
                c11.x2_slope(2.9e307, sf.DECAY_ELLS)
            with pytest.raises(FloatingPointError):
                sf.twist_slope(sf.ModelParams(k=1, b0=4.6e306), sf.DECAY_ELLS)


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
