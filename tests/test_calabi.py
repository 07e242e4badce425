import dataclasses
import itertools
import json
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzlab import calabi as cal
from syzlab import cli
from syzlab import semiflat as sf
from syzlab.errors import NumericalError, ValidationError
from syzlab.forms import top_coeff, top_coeff_pair, wedge_11

ROOT = pathlib.Path(__file__).resolve().parents[1]
TWO_PI = 2.0 * math.pi

MODELS = [
    cal.CalabiModel(k=1, tau=1j, tau_exact=(Fraction(0), Fraction(1))),
    # Im tau = sqrt(3)/2 is irrational; |tau|^2 = 1 makes the ratio -Re tau
    cal.CalabiModel(k=3, tau=complex(-0.5, math.sqrt(3) / 2)),
    cal.CalabiModel(k=2, tau=complex(-0.5, 2.0),
                    tau_exact=(Fraction(-1, 2), Fraction(2))),
]


def _random_points(n, seed=11):
    rng = np.random.default_rng(seed)
    return [(rng.uniform(0.5, 4.0), rng.uniform(0.0, TWO_PI),
             rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) for _ in range(n)]


def _wedge_triple(m, pt):
    """Reference (omega_I, omega_J, omega_K) from six wedges of the coframe
    (d ell, theta, d xi1, d xi2), as the module docstring writes them."""
    c = m.c_tau
    c2 = c * c
    dl = np.array([1.0, 0.0, 0.0, 0.0])
    th = np.array([0.0, 1.0, 0.5 * c2 * pt[3], -0.5 * c2 * pt[2]])
    dx1 = np.array([0.0, 0.0, 1.0, 0.0])
    dx2 = np.array([0.0, 0.0, 0.0, 1.0])
    om_j = wedge_11(th, dl) + pt[0] * c2 * wedge_11(dx1, dx2)
    om_i = c * (wedge_11(th, dx2) + pt[0] * wedge_11(dl, dx1))
    om_k = c * (wedge_11(dx1, th) + pt[0] * wedge_11(dl, dx2))
    return om_i, om_j, om_k


E = np.eye(4)


def _add_to_omega_j(monkeypatch, extra):
    """Patch hk_triple so that omega_J at pt gains the 2-form extra(pt)."""
    real = cal.hk_triple

    def patched(m, pt):
        om_i, om_j, om_k = real(m, pt)
        return om_i, om_j + extra(pt), om_k

    monkeypatch.setattr(cal, "hk_triple", patched)


class TestHkTriple:
    @pytest.mark.parametrize("model", MODELS)
    def test_matches_wedge_construction(self, model):
        for pt in _random_points(20):
            want = _wedge_triple(model, pt)
            for got, ref in zip(cal.hk_triple(model, pt), want):
                assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("model", MODELS)
    def test_orthogonality_and_squares(self, model):
        for pt in _random_points(20):
            oi, oj, ok = cal.hk_triple(model, pt)
            want = -2.0 * pt[0] * model.c_tau ** 2
            for a, b in ((oi, oj), (oi, ok), (oj, ok)):
                assert abs(top_coeff_pair(a, b)) <= 1e-12
            for om in (oi, oj, ok):
                assert top_coeff(om) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("model", MODELS)
    def test_omega_j_squared_vs_holomorphic_form(self, model):
        for pt in _random_points(10):
            oj = cal.hk_triple(model, pt)[1]
            omj = cal.holomorphic_form_j(model, pt)
            lhs = top_coeff(oj)
            rhs = 0.5 * top_coeff_pair(omj.real, omj.real) \
                + 0.5 * top_coeff_pair(omj.imag, omj.imag)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("model", MODELS)
    def test_closed_to_rounding(self, model):
        for pt in _random_points(50, seed=13):
            scale = np.max(np.abs(np.stack(cal.hk_triple(model, pt))))
            assert cal.closedness_defect(model, pt) <= 1e-14 * scale

    @pytest.mark.parametrize("model", MODELS)
    def test_entries_affine_in_each_coordinate(self, model):
        # the premise that makes closedness_defect's unit differences exact
        rng = np.random.default_rng(17)
        for pt in _random_points(10, seed=17):
            q = np.array(pt)
            for e in np.eye(4):
                step = rng.uniform(0.1, 2.0) * e
                m0, m1, m2 = (np.stack(cal.hk_triple(model, q + j * step))
                              for j in range(3))
                scale = max(np.max(np.abs(m)) for m in (m0, m1, m2))
                assert np.max(np.abs(m2 - 2.0 * m1 + m0)) <= 1e-14 * scale

    def test_non_closed_form_detected(self, monkeypatch):
        # d(ell dxi1 ^ dpsi) = dell ^ dxi1 ^ dpsi has coefficient 1
        _add_to_omega_j(monkeypatch, lambda pt: pt[0] * wedge_11(E[2], E[1]))
        pt = (1.4, 0.7, 0.21, -0.35)
        assert cal.closedness_defect(MODELS[0], pt) >= 0.5

    def test_nan_triple_fails_closed(self, monkeypatch):
        _add_to_omega_j(monkeypatch, lambda pt: np.full((4, 4), math.nan))
        pt = (1.4, 0.7, 0.21, -0.35)
        assert math.isnan(cal.closedness_defect(MODELS[0], pt))


class TestGibbonsHawking:
    @pytest.mark.parametrize("model", MODELS)
    def test_metric_matches_ansatz(self, model):
        for pt in _random_points(10):
            g = cal.gibbons_hawking_metric(model, pt)
            want = cal.gibbons_hawking_closed_form(model, pt)
            assert np.max(np.abs(g - want)) <= 1e-12

    def test_perturbation_detected(self):
        model = MODELS[0]
        pt = (1.3, 0.2, 0.1, 0.4)
        g = cal.gibbons_hawking_metric(model, pt)
        bad = cal.gibbons_hawking_closed_form(model, pt)
        bad = bad + np.diag([0.01, 0, 0, 0])
        assert np.max(np.abs(g - bad)) > 1e-3


class TestRotate:
    def test_square_torus(self):
        rot = cal.rotate(MODELS[0])
        assert rot.alpha == pytest.approx(math.sqrt(math.pi))
        assert rot.eps == pytest.approx(TWO_PI * math.sqrt(TWO_PI))
        assert rot.b0 == 0.0
        assert rot.sf_class == cal.STANDARD

    def test_hexagonal_torus_quasi_regular(self):
        rot = cal.rotate(MODELS[1])
        assert rot.b0 == pytest.approx(3.0 / 4.0)  # k=3: b0 = k/4
        assert rot.sf_class == cal.QUASI_REGULAR
        assert rot.winding == (2, -1)

    def test_irregular_from_decimal_tau(self):
        # -Re tau/|tau|^2 = 0.40000001/1.60000001 is 2.3e-9 from 1/4, beyond
        # the 1e-9 match of float mode, and no nearby ratio matches either
        rot = cal.rotate(cal.CalabiModel(k=1, tau=complex(-0.40000001, 1.2)))
        assert rot.sf_class == cal.IRREGULAR
        assert not rot.exact
        assert rot.winding is None

    def test_exact_tau_decides_exactly(self):
        rot = cal.rotate(MODELS[2])
        assert rot.sf_class == cal.QUASI_REGULAR and rot.exact
        # -Re tau/|tau|^2 = (1/2)/(17/4) = 2/17
        assert rot.winding == (17, -2)
        assert rot.b0 == float(Fraction(2, 17))

    def test_float_mode_is_heuristic(self):
        # -Re tau/|tau|^2 = 3/13 here; float mode finds it but stays flagged
        rot = cal.rotate(cal.CalabiModel(k=2, tau=complex(-0.3, 1.1)))
        assert rot.sf_class == cal.QUASI_REGULAR
        assert not rot.exact

    def test_alpha_formula_sweep(self):
        for t in (1.0, 4.0, 16.0, 64.0):
            rot = cal.rotate(cal.CalabiModel(k=1, tau=1j * t))
            assert rot.alpha == pytest.approx(math.sqrt(math.pi / t))
            assert rot.eps == pytest.approx(
                TWO_PI * t * math.sqrt(TWO_PI / t))

    @pytest.mark.parametrize("tau", [1e300j, complex(0.5, 1e300), complex(-0.5, 1e200)])
    def test_huge_modulus_does_not_overflow(self, tau):
        # |tau|^2 overflows; -Re tau/|tau|^2 is below every float
        rot = cal.rotate(cal.CalabiModel(k=1, tau=tau))
        assert rot.sf_class == cal.STANDARD and rot.b0 == 0.0
        assert math.isfinite(rot.alpha) and math.isfinite(rot.eps)

    def test_alpha_overflow_is_numerical(self):
        # k pi Im tau = 3.1e308 overflows, though alpha is about 1.8e-146
        model = cal.CalabiModel(k=10 ** 8, tau=1e300j)
        with pytest.raises(NumericalError, match="alpha"):
            cal.rotate(model)
        assert model._rotation is None

    def test_eps_over_alpha_overflow_is_numerical(self):
        # eps/alpha = 2 pi sqrt(2) |tau|^2/Im tau overflows past Im tau of
        # about 2e307, though eps and alpha are finite (exit 1 before)
        model = cal.CalabiModel(k=1, tau=5e307j)
        with pytest.raises(NumericalError, match="eps/alpha"):
            cal.rotate(model)
        assert model._rotation is None
        assert cli.run(["hkrot", "--k", "1", "--tau", "0+5e307i", "--no-timestamp"]) == 2

    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_tau_rejected(self, part, value):
        tau = complex(value, 1.2) if part == "real" else complex(0.3, value)
        with pytest.raises(ValidationError, match="tau must be finite"):
            cal.CalabiModel(k=1, tau=tau)

    def test_fundamental_domain_enforced(self):
        with pytest.raises(ValidationError):
            cal.CalabiModel(k=1, tau=0.7 + 1.0j)
        with pytest.raises(ValidationError):
            cal.CalabiModel(k=1, tau=0.1 + 0.2j)


class TestVerifyRotation:
    @pytest.mark.parametrize("model", MODELS)
    def test_jacobian_matches_central_differences(self, model):
        # the inverse Jacobian of sf_coordinates times central differences
        # of its point map is the identity
        h = 1e-6
        for pt in _random_points(10, seed=3):
            q = np.array(pt)
            _, jinv = cal.sf_coordinates(model, pt)
            fd = np.empty((4, 4))
            for b in range(4):
                step = np.zeros(4)
                step[b] = h
                plus = cal.sf_coordinates(model, q + step)[0]
                minus = cal.sf_coordinates(model, q - step)[0]
                fd[:, b] = (np.array(plus) - np.array(minus)) / (2.0 * h)
            assert np.max(np.abs(np.array(jinv) @ fd - np.eye(4))) <= 1e-8

    def test_single_point_square(self):
        pt = (2.0, 1.0, 0.3, 0.0)
        assert cal.verify_rotation(MODELS[0], pt) <= 1e-8

    def test_grid_hexagonal(self):
        model = cal.CalabiModel(k=1, tau=complex(-0.5, math.sqrt(3) / 2))
        worst = 0.0
        for ell in np.linspace(1.0, 3.0, 5):
            for xi1 in np.linspace(0.0, 0.6, 5):
                pt = (ell, 0.8, xi1, 0.25)
                worst = max(worst, cal.verify_rotation(model, pt))
        assert worst <= 1e-8

    def test_rotation_params_consistency(self):
        # fiber pairing of the rotated params reproduces the rotation eps
        rot = cal.rotate(MODELS[0])
        import syzlab.fibration as fib
        assert sf.pair_closed_form(rot.params, fib.FIBER) == pytest.approx(
            rot.eps)

    @pytest.mark.parametrize("model", MODELS)
    def test_lattice_relations(self, model):
        pt = (1.7, 0.4, 0.2, 0.3)
        defects = cal.lattice_defects(model, pt)
        assert max(defects.values()) <= 1e-10


def _forward_jacobian(model, pt):
    """Closed-form Jacobian of the point map of sf_coordinates, in the
    coordinates (ell, psi, xi1, xi2)."""
    t = complex(model.tau)
    a, b, c = model.a_tau, model.b_tau, model.c_tau
    c2 = c * c
    ell, _, xi1, xi2 = pt
    return np.array([
        [TWO_PI * abs(t) / (t.imag * c), 0.0, 0.0, 0.0],
        [0.0, 0.0, TWO_PI, -TWO_PI * t.real / t.imag],
        [b * ell / (TWO_PI * a), 1.0 / TWO_PI, -c2 * xi2 / (2.0 * TWO_PI),
         (-0.5 * a * c2 * xi1 - b * c2 * xi2) / (TWO_PI * a)],
        [c * xi2 / (TWO_PI * a), 0.0, 0.0, c * ell / (TWO_PI * a)]])


class TestClosedFormPushForward:
    @pytest.mark.parametrize("model", MODELS)
    def test_inverse_jacobian_matches_numpy(self, model):
        for pt in _random_points(20, seed=5):
            want = np.linalg.inv(_forward_jacobian(model, pt))
            _, jinv = cal.sf_coordinates(model, pt)
            assert np.max(np.abs(np.array(jinv) - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("model", MODELS)
    def test_push_forward_matches_matrix_oracle(self, model):
        rows, cols = np.triu_indices(4, 1)
        for pt in _random_points(20, seed=6):
            jinv = np.array(cal.sf_coordinates(model, pt)[1])
            om_i, _, om_k = cal.hk_triple(model, pt)
            oracle = jinv.T @ (model.a_tau * om_i + model.b_tau * om_k) @ jinv
            _, pushed = cal._pushed_omega_tau(model, pt)
            scale = np.max(np.abs(oracle))
            assert np.max(np.abs(np.array(pushed) - oracle[rows, cols])) <= 1e-14 * scale

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("field", ["b0", "alpha"])
    def test_wrong_rotation_is_detected(self, monkeypatch, model, field):
        rot = cal.rotate(model)
        if field == "b0":
            params = dataclasses.replace(rot.params, b0=rot.b0 + 1e-6)
        else:
            params = dataclasses.replace(rot.params, alpha=rot.alpha * (1.0 + 1e-6))
        bad = dataclasses.replace(rot, params=params)
        monkeypatch.setattr(cal, "rotate", lambda m: bad)
        pt = (2.0, 1.0, 0.3, 0.2)
        assert cal.verify_rotation(model, pt) > 1e-8

    def test_nan_propagates(self, monkeypatch):
        pt = (2.0, 1.0, 0.3, 0.2)
        real = cal._pushed_omega_tau

        def poisoned(m, p):
            q_sf, pushed = real(m, p)
            return q_sf, pushed[:-1] + (math.nan,)

        monkeypatch.setattr(cal, "_pushed_omega_tau", poisoned)
        assert math.isnan(cal.verify_rotation(MODELS[1], pt))


_UPPER = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _dense_pushed_omega_tau(m, pt):
    """The push-forward over every entry of sf_coordinates' inverse Jacobian,
    zeros included, as _pushed_omega_tau computed it before it dropped the
    products that are zero by structure, with P_3 = c ell y3 (a r + b), zero
    in exact arithmetic, left out as _pushed_omega_tau leaves it out."""
    q_sf, (dl, dpsi, dx1, dx2) = cal.sf_coordinates(m, pt)
    h = 0.5 * m.c_tau ** 2
    u, v = h * pt[3], h * pt[2]
    th = [p + u * x - v * y for p, x, y in zip(dpsi, dx1, dx2)]
    a02, a03, a12, a13 = cal._tau_coefficients(m, pt[0])
    pp = [a02 * x + a03 * y for x, y in zip(dx1[:3], dx2[:3])] + [0.0]
    qq = [a12 * x + a13 * y for x, y in zip(dx1, dx2)]
    return q_sf, [dl[i] * pp[j] - pp[i] * dl[j] + th[i] * qq[j] - qq[i] * th[j]
                  for i, j in _UPPER]


def _parent_verify_rotation(m, pt):
    """verify_rotation on the dense push-forward, with its target read as the
    whole sf_form_chart matrix at q_sf, turned into lists and read at _UPPER."""
    rot = cal.rotate(m)
    q_sf, pushed = _dense_pushed_omega_tau(m, pt)
    target = sf.sf_form_chart(rot.params, q_sf).tolist()
    want = [target[i][j] for i, j in _UPPER]
    diffs = [abs(p - w) for p, w in zip(pushed, want)]
    scale = max(max(abs(w) for w in want), 1e-300)
    total = sum(diffs)
    return (max(diffs) if total == total else total) / scale


def _outcome(verify, m, pt):
    """The bits of verify(m, pt), NaN as one value, or the exception it raises."""
    try:
        value = verify(m, pt)
    except (ArithmeticError, ValueError, RuntimeWarning) as exc:
        return type(exc), str(exc)
    return "nan" if value != value else value.hex()


def _hkrot_models():
    """Every (k, tau) the benchmark's hkrot range draws, parsed as the CLI
    parses --tau, then MODELS."""
    ranges = json.loads((ROOT / "bench" / "design.json").read_text())["ranges"]["hkrot"]
    models = []
    for k, re_s, im_s in itertools.product(ranges["k"], ranges["tau_re"], ranges["tau_im"]):
        tau, exact = cli.parse_complex(f"{re_s}+{im_s}i")
        models.append(cal.CalabiModel(k=k, tau=tau, tau_exact=exact))
    assert len(models) == 64
    return models + MODELS


# the 75 points of an hkrot report, written out apart from cli._HKROT_POINTS
_HKROT_GRID = [(ell, 0.0, xi1, xi2) for ell in np.linspace(1.0, 3.0, 5).tolist()
               for xi1 in np.linspace(0.0, 0.6, 5).tolist() for xi2 in (0.2, 0.45, 0.7)]


_HKROT_MODELS = _hkrot_models()
# |coordinate| from 1e-150 to 1e150, either sign: squares and products of
# them overflow and cancel, so the residual reaches inf and NaN
_COORD = st.builds(lambda e, neg: -10.0 ** e if neg else 10.0 ** e,
                   st.floats(-150.0, 150.0), st.booleans())


class TestVerifyRotationBitwise:
    def test_grid_is_the_reports_points(self):
        # so the bitwise rows below cover every point an hkrot report checks
        assert len(_HKROT_GRID) == 75
        assert cli._HKROT_POINTS == tuple(_HKROT_GRID)

    def test_matches_full_matrix_target(self):
        for model in _HKROT_MODELS:
            got = [cal.verify_rotation(model, pt) for pt in _HKROT_GRID]
            want = [_parent_verify_rotation(model, pt) for pt in _HKROT_GRID]
            assert got == want, model
            # each pushed entry, not only the largest difference
            for pt in _HKROT_GRID:
                q_sf, pushed = cal._pushed_omega_tau(model, pt)
                assert (q_sf, list(pushed)) == _dense_pushed_omega_tau(model, pt), (model, pt)

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(_HKROT_MODELS), _COORD, _COORD, _COORD, _COORD)
    def test_matches_dense_push_forward_over_float_range(self, model, ell, psi, xi1, xi2):
        pt = (ell, psi, xi1, xi2)
        assert (_outcome(cal.verify_rotation, model, pt)
                == _outcome(_parent_verify_rotation, model, pt))

    def test_tau_constants_are_cached_outside_the_fields(self):
        for model in _hkrot_models():
            fresh = cal.CalabiModel(k=model.k, tau=model.tau, tau_exact=model.tau_exact)
            before = (repr(fresh), hash(fresh), dataclasses.astuple(fresh))
            t = fresh.tau
            assert fresh.a_tau == t.imag / abs(t)
            assert fresh.b_tau == -t.real / abs(t)
            assert fresh.c_tau == math.sqrt(TWO_PI * fresh.k / t.imag)
            # the expressions sf_coordinates and the push-forward evaluated per point
            c1 = TWO_PI * abs(t) / (t.imag * fresh.c_tau)
            a, b, c = fresh.a_tau, fresh.b_tau, fresh.c_tau
            assert fresh.chart == (a, b, c, c1, t.real / t.imag, 1.0 / c1, TWO_PI * a, c * c,
                                   0.5 * c ** 2)
            assert {"a_tau", "b_tau", "c_tau", "chart"} <= vars(fresh).keys()
            assert (repr(fresh), hash(fresh), dataclasses.astuple(fresh)) == before
            assert fresh == model == dataclasses.replace(fresh)
            # replace builds a new instance: no stored constant carries over
            other = dataclasses.replace(fresh, k=fresh.k + 1)
            assert not {"a_tau", "b_tau", "c_tau", "chart"} & vars(other).keys()
            assert other.c_tau == math.sqrt(TWO_PI * (fresh.k + 1) / t.imag)


class TestRotateOnce:
    def test_same_instance_same_result(self):
        model = cal.CalabiModel(k=2, tau=complex(-0.5, 2.0),
                                tau_exact=(Fraction(-1, 2), Fraction(2)))
        assert cal.rotate(model) is cal.rotate(model)

    def test_fresh_equal_model_gives_equal_fields(self):
        kwargs = dict(k=3, tau=complex(-0.5, 2.0),
                      tau_exact=(Fraction(-1, 2), Fraction(2)))
        first, second = cal.CalabiModel(**kwargs), cal.CalabiModel(**kwargs)
        rot = cal.rotate(first)
        assert first == second
        assert dataclasses.astuple(cal.rotate(second)) == dataclasses.astuple(rot)

    def test_exception_is_not_stored(self, monkeypatch):
        real = cal.classify_ratio
        calls = []

        def fails_once(*args):
            calls.append(args)
            if len(calls) == 1:
                raise ArithmeticError("injected")
            return real(*args)

        monkeypatch.setattr(cal, "classify_ratio", fails_once)
        model = cal.CalabiModel(k=1, tau=1j)
        with pytest.raises(ArithmeticError, match="injected"):
            cal.rotate(model)
        rot = cal.rotate(model)
        assert rot.sf_class == cal.STANDARD and len(calls) == 2
        assert cal.rotate(model) is rot and len(calls) == 2


class TestMckFibers:
    def test_square_torus_fiber(self):
        sup_om, sup_im = cal.mck_restriction(MODELS[0], 0.0, 1.0)
        assert sup_om <= 1e-10 and sup_im <= 1e-10

    def test_general_fiber(self):
        model = cal.CalabiModel(k=2, tau=complex(-0.5, 1.0),
                                tau_exact=(Fraction(-1, 2), Fraction(1)))
        sup_om, sup_im = cal.mck_restriction(model, 0.4, 3.0)
        assert sup_om <= 1e-10 and sup_im <= 1e-10

    @pytest.mark.parametrize("model", MODELS)
    def test_non_lagrangian_form_detected(self, monkeypatch, model):
        # dpsi ^ dxi2 pairs d/dpsi with tau in xi to Im tau
        _add_to_omega_j(monkeypatch, lambda pt: wedge_11(E[1], E[3]))
        sup_om, sup_im = cal.mck_restriction(model, 0.4, 3.0)
        assert sup_om == pytest.approx(model.tau.imag, rel=1e-12)
        assert sup_im <= 1e-10

    def test_nan_triple_fails_closed(self, monkeypatch):
        _add_to_omega_j(monkeypatch, lambda pt: np.full((4, 4), math.nan))
        sup_om, _ = cal.mck_restriction(MODELS[0], 0.4, 3.0)
        assert math.isnan(sup_om)
