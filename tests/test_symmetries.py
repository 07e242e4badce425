"""Metamorphic rows from the model's exact symmetries.

Each row runs a report and its transform through `cli.run` and checks the
relation between them that a symmetry of the model predicts, so no closed
form written beside the code is needed:

- b0 -> -b0 with C_{m1,m2} -> C_{m1,-m2} negates `semiflat pair`'s
  quadrature pairing bit for bit, as it negates the closed form
  (2 m1 b0/k + m2) eps alpha.
- alpha -> 2^j alpha multiplies the Kahler form by 2^j and leaves Omega
  alone: `semiflat pair`'s pairing and closed form, and `semiflat eval`'s
  form, metric and metric eigenvalues, scale by 2^j bit for bit, and eval's
  Monge-Ampere residual, whose two sides both scale by 4^j, keeps its bits.
- The homothety of `semiflat.normal_form`: a model with (k, eps, alpha, b0)
  is (alpha/lambda) Phi^* of its normal form (k = eps = alpha = 1, b0' =
  lambda b0, which `normal_form` carries on to b0 = 0 by the isometry below),
  lambda = eps/k, Phi(x) = lambda x.  Curvature norms and
  Gauss terms scale by s = eps/(k alpha), |II| and |H| by sqrt(s), and r by
  1/sqrt(s).  The reports at (k, eps) are the normal form's samples times
  the scale, bit for bit; r and the fitted exponent agree to rounding.
  A cycle C_{m1,m2} maps onto the normal form's C_{m1,m2} only where its
  x2-slope k m2/m1 becomes eps m2/m1, i.e. for m2 = 0 or eps = 1.  There
  `slag check`'s restriction of omega (alpha times the normal form's, and
  alpha = 1 on the command line) and its phase defect are the normal
  form's, bit for bit.
- b0 is the isometry x -> x - b0' y^2/(4 pi^2) onto b0 = 0 (b0' = (eps/k) b0),
  which adds b0' ell/(2 pi^2) to a lift's x2-slope and fixes the zero section:
  `semiflat curvature` and `glue positivity` keep the bits of b0 = 0, and
  `slag pi-decay` and `slag check` agree to 1e-13 under (b0, C_{m1,m2}) ->
  (b0 + k/2, C_{m1,m2-m1}), which leaves the image's slope as it is.
- tau -> -conj(tau) mirrors the Calabi model's lattice: `hkrot` keeps alpha,
  eps and the class and negates b0 = -k Re tau/(2 |tau|^2) and the winding's
  p, bit for bit on every exact modulus the benchmark draws (b0 = 0 is +0.0
  on both sides, as exact mode rounds the Fraction 0).
- The model depends on x1 nowhere: `semiflat eval` at any finite x1 gives
  the results it gives at x1 = 0, and `calabi.verify_rotation`, whose psi
  moves only the semi-flat x1, returns at any psi the bits it returns at
  psi = 0.  `slag check` takes its sups on the cycle's base angles alone,
  and `hkrot` samples xi2, not psi, for the same reason.
"""

import contextlib
import csv
import io
import itertools
import json
import math
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzlab import calabi as cal
from syzlab import cli


def _report(*argv):
    """(exit code, results, check measures by name) of one report."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(list(argv) + ["--no-timestamp"])
    report = json.loads(out.getvalue())
    return code, report["results"], {c["name"]: c["measured"] for c in report["checks"]}


def _run(*argv, csv_path=None):
    """(exit code, results, curve) of one report; curve is the (r, value)
    rows of --csv when csv_path is given."""
    extra = ["--csv", str(csv_path)] if csv_path is not None else []
    code, results, _ = _report(*argv, *extra)
    curve = None
    if csv_path is not None:
        with open(csv_path) as fh:
            curve = [(float(r), float(v)) for r, v in itertools.islice(csv.reader(fh), 1, None)]
    return code, results, curve


_CYCLES = ((1, 0), (1, 1), (2, 1), (3, -2))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_pairing_is_odd_under_b0_and_m2(k):
    # 72 configurations per k: 216 over k = 1..3
    for eps, b0, (m1, m2), kappa1 in itertools.product(
            ("0.5", "1", "2"), ("1/4", "1/3", "0.7"), _CYCLES, ("0", "0.3")):
        common = ["semiflat", "pair", "--k", str(k), "--eps", eps, "--kappa1", kappa1]
        code, plus, _ = _run(*common, "--b0", b0, "--cycle", f"{m1},{m2}")
        code_minus, minus, _ = _run(*common, "--b0", "-" + b0, "--cycle", f"{m1},{-m2}")
        assert code == code_minus == 0
        assert plus["pairing"] == -minus["pairing"], (eps, b0, m1, m2, kappa1)


def _scaled(value, j):
    """value, a number or nested lists of them, times 2^j."""
    if isinstance(value, list):
        return [_scaled(v, j) for v in value]
    return math.ldexp(value, j)


# 12 configs, each at alpha = 0.3 2^j for j = -3 and 5: 24 scaled pair reports
@pytest.mark.parametrize("k,eps,kappa1", [("1", "0.5", "0"), ("3", "2", "0.3")])
@pytest.mark.parametrize("b0", ["-1/4", "0.7"])
@pytest.mark.parametrize("cycle", ["fiber", "2,1", "3,-2"])
def test_pairing_scales_with_alpha(k, eps, kappa1, b0, cycle):
    common = ["semiflat", "pair", "--k", k, "--eps", eps, "--kappa1", kappa1, "--b0", b0,
              "--cycle", cycle]
    code, base, _ = _report(*common, "--alpha", "0.3")
    assert code == 0
    for j in (-3, 5):
        code_j, res, _ = _report(*common, "--alpha", repr(math.ldexp(0.3, j)))
        assert code_j == 0
        for key in ("pairing", "closed_form"):
            assert res[key] == _scaled(base[key], j), (key, j)


@pytest.mark.parametrize("k,b0", [("1", "0"), ("3", "1/4")])
@pytest.mark.parametrize("kappa1", ["0", "0.3"])
@pytest.mark.parametrize("point", [["--ell", "0.7"],
                                   ["--ell", "5", "--theta", "1", "--x2", "0.3"]])
def test_semiflat_eval_scales_with_alpha(k, b0, kappa1, point):
    common = ["semiflat", "eval", "--k", k, "--b0", b0, "--kappa1", kappa1, *point]
    code, base, measured = _report(*common, "--alpha", "0.3")
    assert code == 0
    for j in (-4, 2):
        code_j, res, measured_j = _report(*common, "--alpha", repr(math.ldexp(0.3, j)))
        assert code_j == 0
        for key in ("form", "metric", "metric_eigenvalues"):
            assert res[key] == _scaled(base[key], j), (key, j)
        assert measured_j["ma_residual_rel"] == measured["ma_residual_rel"], j


# (k, eps, b0, kappa1, cycle): eps over the float range; m2 != 0 only at eps = 1
_HOMOTHETY = [(1, 0.5, 0.25, 0.0, "1,0"), (2, 0.7, 0.25, 0.0, "1,0"),
              (3, 2.0, -1.0 / 3.0, 0.3, "1,0"), (2, 1e-300, 0.7, 0.0, "1,0"),
              (3, 1e300, 1e-300, 0.3, "1,0"), (3, 1.0, -0.75, 0.0, "2,1"),
              (2, 1.0, 0.5, 0.3, "1,-1")]


def _pair_of_argv(words, k, eps, b0, kappa1, cycle):
    """The argv at (k, eps, b0) and at its normal form, and s = eps/k."""
    lam = eps / k
    tail = ["--kappa1", repr(kappa1)] + (["--cycle", cycle] if words[0] == "slag" else [])
    general = [*words, "--k", str(k), "--eps", repr(eps), "--b0", repr(b0), *tail]
    normal = [*words, "--k", "1", "--b0", repr(lam * b0), *tail]
    return general, normal, lam


@pytest.mark.parametrize("words", [("semiflat", "curvature"), ("slag", "pi-decay")])
@pytest.mark.parametrize("k,eps,b0,kappa1,cycle", _HOMOTHETY)
def test_decay_report_is_its_normal_form_scaled(tmp_path, words, k, eps, b0, kappa1, cycle):
    general, normal, s = _pair_of_argv(words, k, eps, b0, kappa1, cycle)
    code, res, curve = _run(*general, csv_path=tmp_path / "general.csv")
    code1, res1, curve1 = _run(*normal, csv_path=tmp_path / "normal.csv")
    assert code == code1 == 0
    # |Rm| scales by s and |II| by sqrt(s), bit for bit; r by 1/sqrt(s), to
    # a few rounding errors of its four operations
    scale = s if words[0] == "semiflat" else math.sqrt(s)
    for (r, val), (r1, val1) in zip(curve, curve1):
        assert val == scale * val1
        assert r * math.sqrt(s) == pytest.approx(r1, rel=1e-15, abs=0.0)
    # log-log slope of the same points moved by constant offsets
    assert res["exponent"] == pytest.approx(res1["exponent"], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("k,eps,b0,kappa1,cycle", _HOMOTHETY)
@pytest.mark.parametrize("ell", ["0.5", "10", "40"])
def test_slag_check_is_its_normal_form_scaled(k, eps, b0, kappa1, cycle, ell):
    general, normal, s = _pair_of_argv(("slag", "check"), k, eps, b0, kappa1, cycle)
    code, res, _ = _run(*general, "--ell", ell)
    code1, res1, _ = _run(*normal, "--ell", ell)
    assert {code, code1} <= {0, 3}
    assert res["sup_omega_restriction"] == res1["sup_omega_restriction"]
    assert res["sup_phase_defect"] == res1["sup_phase_defect"]
    assert res["second_ff_norm"] == math.sqrt(s) * res1["second_ff_norm"]
    assert res["mean_curvature"] == math.sqrt(s) * res1["mean_curvature"]
    assert res["gauss_residual"] == s * res1["gauss_residual"]


# ell far out at eps = 1e-300, where the model's own d = |kappa|^2 k ell/(pi eps)
# overflows and only its normal form can be evaluated; C_{1,0} at b0 != 0 is not
# Lagrangian, and the relative lagrangian check reads 1 on both (exit 3)
@pytest.mark.parametrize("kappa1,ell", [(0.0, "1e10"), (0.3, "4.1e102")])
def test_slag_check_far_out_is_its_normal_form(kappa1, ell):
    general, normal, _ = _pair_of_argv(("slag", "check"), 1, 1e-300, 0.7, kappa1, "1,0")
    (code, res, _), (code1, res1, _) = _run(*general, "--ell", ell), _run(*normal, "--ell", ell)
    assert code == code1 == 3
    assert res["sup_omega_restriction"] == res1["sup_omega_restriction"]
    assert res["sup_phase_defect"] == res1["sup_phase_defect"]


@pytest.mark.parametrize("k", ["1", "9"])
@pytest.mark.parametrize("kappa1", ["0", "0.5"])
@pytest.mark.parametrize("b0", ["1/4", "100", "1e5"])
def test_curvature_does_not_depend_on_b0(tmp_path, k, kappa1, b0):
    # b0 is the isometry x -> x - b0' y^2/(4 pi^2) onto b0 = 0, which fixes the zero
    # section's x2 = 0: the curve and the fit keep the bits of b0 = 0
    common = ["semiflat", "curvature", "--k", k, "--kappa1", kappa1]
    code, res, curve = _run(*common, "--b0", b0, csv_path=tmp_path / "b0.csv")
    code0, res0, curve0 = _run(*common, csv_path=tmp_path / "zero.csv")
    assert code == code0 == 0
    assert (res, curve) == (res0, curve0)


@pytest.mark.parametrize("b0", ["1/4", "1e6"])
@pytest.mark.parametrize("extra", [["--k", "1"], ["--k", "1", "--alpha", "0.3"],
                                   ["--k", "3", "--eps", "2"]], ids=["k1", "alpha0.3", "k3"])
def test_positivity_does_not_depend_on_b0(b0, extra):
    # the glued terms are base forms, and the b0 isometry fixes the base: the margin is
    # read at Gamma = 0, with the bits of b0 = 0 (6.7e-12 at b0 = 1e6 in the chart)
    common = ["glue", "positivity", "--r", "0.1", "--s", "0.02", "--v0c", "1", "--vomc", "0.2",
              *extra]
    assert _report(*common, "--b0", b0) == _report(*common)


def _rel(a, b):
    return abs(a - b) / abs(b)


# (k, b0): b0 + k/2 adds eps ell/(4 pi^2) to the isometry's x2-slope b0' ell/(2 pi^2)
# and C_{m1,m2-m1} takes it from the lift's, so the image on b0 = 0 is one surface.
# The slopes' sums round apart by an ulp or so, and |II| is taken at x2 = 0, where
# g_i = 0 and A = d + C g_i^2 cancels nothing, so the rows reach b0' = b0/k = 1e6
_B0_SHIFT = [(1, Fraction(300)), (3, Fraction(1000)), (9, Fraction(1000)),
             (1, Fraction(3000)), (1, Fraction(10 ** 6))]


@pytest.mark.parametrize("k,b0", _B0_SHIFT, ids=[f"k{k}-b0_{b0}" for k, b0 in _B0_SHIFT])
def test_slag_reports_under_b0_plus_half_k(tmp_path, k, b0):
    for (m1, m2), kappa1 in itertools.product(_CYCLES, ("0", "0.5")):
        common = ["--k", str(k), "--kappa1", kappa1]
        argv = ("--b0", str(b0), "--cycle", f"{m1},{m2}")
        shifted = ("--b0", str(b0 + Fraction(k, 2)), "--cycle", f"{m1},{m2 - m1}")
        code, res, curve = _run("slag", "pi-decay", *common, *argv, csv_path=tmp_path / "a.csv")
        code1, res1, curve1 = _run("slag", "pi-decay", *common, *shifted,
                                   csv_path=tmp_path / "b.csv")
        assert code == code1 == 0
        assert res["exponent"] == pytest.approx(res1["exponent"], rel=1e-13, abs=0.0)
        for (r, val), (r1, val1) in zip(curve, curve1):
            assert r == r1 and _rel(val, val1) <= 1e-13, (m1, m2, kappa1, r)
        for ell in ("5", "10", "40"):
            (_, res, _), (_, res1, _) = (_run("slag", "check", *common, *tail, "--ell", ell)
                                         for tail in (argv, shifted))
            assert _rel(res["second_ff_norm"], res1["second_ff_norm"]) <= 1e-13, (m1, m2, ell)
            assert _rel(res["sup_omega_restriction"], res1["sup_omega_restriction"]) <= 1e-13
            assert res["sup_phase_defect"] == res1["sup_phase_defect"]


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_EVAL = (["semiflat", "eval", "--k", "1", "--ell", "2"],
         ["semiflat", "eval", "--k", "3", "--eps", "0.5", "--b0", "0.3", "--kappa1", "0.4",
          "--ell", "5", "--theta", "1", "--x2", "0.3"],
         ["semiflat", "eval", "--k", "2", "--alpha", "1.5", "--ell", "0.7", "--x2", "-2"])


def _report_results(argv):
    """(exit code, the JSON text of the report's results)."""
    code, results, _ = _report(*argv)
    return code, json.dumps(results)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_EVAL), _FINITE)
def test_semiflat_eval_does_not_depend_on_x1(words, x1):
    # the JSON text: 0.0 and -0.0 differ there, as in the bits
    assert _report_results(words + ["--x1", repr(x1)]) == _report_results(words + ["--x1", "0"])


_ROTATION_MODELS = [cal.CalabiModel(k=k, tau=tau, tau_exact=exact)
                    for k, text in ((1, "0+1i"), (2, "-1/2+2i"), (3, "1/3+1i"),
                                    (100000000, "0+1i"), (5, "0.3+0.97i"))
                    for tau, exact in [cli.parse_complex(text)]]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_ROTATION_MODELS), st.floats(0.5, 5.0), _FINITE,
       st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_verify_rotation_does_not_depend_on_psi(model, ell, psi, xi1, xi2):
    # psi moves only the chart's x1, with |x1| at most about |psi|/(2 pi), finite
    got = cal.verify_rotation(model, (ell, psi, xi1, xi2))
    want = cal.verify_rotation(model, (ell, 0.0, xi1, xi2))
    assert got.hex() == want.hex()


_HKROT = json.loads((pathlib.Path(__file__).resolve().parents[1] / "bench" / "design.json")
                    .read_text())["ranges"]["hkrot"]


@pytest.mark.parametrize("k", _HKROT["k"])
def test_hkrot_under_tau_to_minus_conjugate(k):
    # 16 moduli per k: the benchmark's 64 exact (k, tau)
    for re_s, im_s in itertools.product(_HKROT["tau_re"], _HKROT["tau_im"]):
        common = ["hkrot", "--k", str(k), "--tau"]
        code, res, _ = _report(*common, f"{re_s}+{im_s}i")
        code_m, res_m, _ = _report(*common, f"{-Fraction(re_s)}+{im_s}i")
        assert code == code_m == 0
        assert (res_m["alpha"], res_m["eps"]) == (res["alpha"], res["eps"]), (re_s, im_s)
        assert res_m["b0"] == -res["b0"] and res_m["sf_class"] == res["sf_class"], (re_s, im_s)
        q, p = res["winding"]
        assert res_m["winding"] == [q, -p], (re_s, im_s)
