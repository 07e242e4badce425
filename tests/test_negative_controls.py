"""Negative controls: each check must pass on the exact model and fail once a
named closed-form term is scaled by (1 + delta).

A row holds one argv, the check it reads and the term it perturbs.  It
passes at delta = 0 and records its detection threshold: the smallest power
of ten that flips the check (it does not flip at a tenth of it); two rows
whose flip rounding decides take one step past it.  The curvature and
pi-decay scale rows also fail at delta = 1e-9.  The decay-exponent rows tilt
the samples by r^delta instead and record the delta at which the exponent
leaves its window.  A check that
no delta flips would be an identity; positivity_margin is one on its README
argv, metric_positive is one wherever it reads a verdict, sign_change is one
on every report, and gauss_equation is one under every scaled row of the
metric jet's patterns.  _NO_ROW_YET
names the checks that have no row.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from syzlab import calabi as cal
from syzlab import cli, glue
from syzlab import fibration as fib
from syzlab import semiflat as sf
from syzlab import slag

def _scaled_output(real, delta):
    """real with its result, or each part of a tuple result, times (1 + delta)."""
    def scaled(*args):
        out = real(*args)
        if isinstance(out, tuple):
            return tuple(v * (1.0 + delta) for v in out)
        return out * (1.0 + delta)
    return scaled


def _scaled_constant(real, delta):
    return real * (1.0 + delta)


def _turned_value(real, delta):
    """fibration.section_jet with the section's value, not its derivative, times (1 + i delta):
    a real factor keeps a real value real."""
    def turned(*args):
        eta, eta_y = real(*args)
        return eta * (1.0 + 1j * delta), eta_y
    return turned


# (check, argv, owner, patched name, its scaled replacement, threshold).
# pairing_rel_error reads 2 pi^2 through g_r = b0 ell/(2 pi^2), so its rows
# have b0 != 0.  The Monge-Ampere checks scale the right-hand side
# alpha^2 Omega^Omegabar, so their measure reads delta/(1 + delta) plus the
# exact model's own residual, 1.5e-15 to 6.5e-15 here.  Over residual's
# 1,024 samples that residual tips delta = 1e-10, the tolerance itself, over
# (the worst sample reads 1.0000025e-10 to 1.0000642e-10), while 1e-11 stays
# below it (at most 1.00065e-11), so residual's rows flip at 1e-10.  eval's
# one point need not round over at 1e-10, so its row flips first at 1e-9.
# isometry_defect is read where the section is a real constant, so that the
# translation moves no x2: the section's value turned by 1 + i delta moves x2
# by h0 delta, and the defect per unit eps/k reads about 2 pi |h0| delta/9:
# 0.26 delta (k = 1, h0 = 0.37) against 1e-14 flips at 1e-13, and 1.05 delta
# (k = 3, eps = 2, h0 = -1.5) at 1e-14.
_SEMIFLAT_ROWS = [
    *(("pairing_rel_error", argv, sf, "_TWO_PI_SQ", _scaled_constant, 1e-7) for argv in (
        ["semiflat", "pair", "--k", "2", "--b0", "-1/4", "--cycle", "2,1"],
        ["semiflat", "pair", "--k", "3", "--eps", "2", "--b0", "0.7", "--cycle", "1,0"])),
    *(("monge_ampere_rel", ["semiflat", "residual", "--k", *k, "--alpha", "0.3"],
       sf, "holomorphic_volume_top", _scaled_output, 1e-10)
      for k in (["1"], ["2"], ["3", "--eps", "2"])),
    ("ma_residual_rel", ["semiflat", "eval", "--k", "2", "--ell", "5", "--b0", "1/4",
                         "--alpha", "0.3"], sf, "holomorphic_volume_top", _scaled_output, 1e-9),
    *(("isometry_defect", ["semiflat", "classify-translation", "--k", *argv], fib,
       "section_jet", _turned_value, threshold)
      for argv, threshold in ((["1", "--h0", "0.37+0i"], 1e-13),
                              (["3", "--eps", "2", "--h0", "-1.5+0i"], 1e-14)))]


@pytest.mark.parametrize("name,argv,owner,term,scaled,threshold", _SEMIFLAT_ROWS,
                         ids=[f"{row[0]}-{row[1][3]}" for row in _SEMIFLAT_ROWS])
def test_semiflat_check_fails_on_a_scaled_term(monkeypatch, name, argv, owner, term, scaled,
                                               threshold):
    exact = getattr(owner, term)
    for delta, code in ((0.0, 0), (threshold / 10.0, 0), (threshold, 3)):
        monkeypatch.setattr(owner, term, scaled(exact, delta))
        got, check = _check(argv, name)
        assert (got, check["passed"]) == (code, code == 0), delta


# the floors of isometry_defect and bounded_ratio read the defect per unit eps/k, so
# each flips at one delta at eps = 1 and at eps = 1e-300, where an absolute floor read
# 1e-300 times it and never flipped: isometry_defect as its row above, and
# bounded_ratio's max >= 1e-14 where the section's b = delta makes a defect of delta/pi
@pytest.mark.parametrize("eps", ["1", "1e-300"])
def test_floors_flip_at_one_delta_per_unit_scale(monkeypatch, eps):
    argv = ["semiflat", "classify-translation", "--k", "1", "--eps", eps]
    for b, code in (("1e-13", 0), ("1e-14", 3)):
        got, check = _check(argv + ["--section-b", b], "bounded_ratio")
        assert (got, check["passed"]) == (code, code == 0), b
    exact = fib.section_jet
    for delta, code in ((0.0, 0), (1e-14, 0), (1e-13, 3)):
        monkeypatch.setattr(fib, "section_jet", _turned_value(exact, delta))
        got, check = _check(argv + ["--h0", "0.37+0i"], "isometry_defect")
        assert (got, check["passed"]) == (code, code == 0), delta


# (check, argv, module, term, threshold, flip step); eps over float64's range, where
# the reports go through the normal form and its scale.  The measure reads about
# delta - e, e the exact model's own rounding, so at delta = 1e-12 the flip is
# decided by e's sign.  The pi_scale rows at eps = 1 and 1e300 read 9.99978e-13
# there, so they take the step 1.001e-12 (1.00098e-12); every other row flips at
# 1e-12 itself (1.0002e-12 to 1.00042e-12)
_ROWS = [(check, words + ["--k", "1", "--eps", eps], module, term, 1e-12,
          1.001e-12 if (check, eps) in {("pi_scale", "1"), ("pi_scale", "1e300")} else 1e-12)
         for check, words, module, term in (
             ("curvature_scale", ["semiflat", "curvature"], sf, "RM_R2"),
             ("pi_scale", ["slag", "pi-decay"], slag, "II_R"))
         for eps in ("1e-300", "1", "1e300")]


def _check(argv, name):
    """(exit code, the named check of the report)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv + ["--no-timestamp"])
    return code, {c["name"]: c for c in json.loads(out.getvalue())["checks"]}[name]


@pytest.mark.parametrize("name,argv,module,term,threshold,flip", _ROWS,
                         ids=[f"{row[0]}-{row[1][-1]}" for row in _ROWS])
def test_check_fails_on_a_scaled_term(monkeypatch, name, argv, module, term, threshold, flip):
    exact = getattr(module, term)
    for delta, code in ((0.0, 0), (threshold / 10.0, 0), (flip, 3), (1e-9, 3)):
        monkeypatch.setattr(module, term, exact * (1.0 + delta))
        got, check = _check(argv, name)
        assert (got, check["passed"]) == (code, code == 0), delta


# the argv of the closed-form rows: eps over float64's range, and b0 = 1000, which
# reaches |II| as the slope b0 ell/(2 pi^2) of a non-special plane (sigma != 0)
_DECAY_ARGV = [*((check, words + ["--k", "1", "--eps", eps])
                 for check, words in (("curvature_scale", ["semiflat", "curvature"]),
                                      ("pi_scale", ["slag", "pi-decay"]))
                 for eps in ("1e-300", "1", "1e300")),
               ("curvature_scale", ["semiflat", "curvature", "--k", "1", "--b0", "1000"]),
               ("pi_scale", ["slag", "pi-decay", "--k", "1", "--b0", "1000"])]
# K = |kappa|^2 as kappa_log_jet hands it to both closed forms, w left exact:
# |Rm| moves by delta (1.0002e-12 to 1.0004e-12 at 1e-12) and flips at 1e-12,
# |II| by delta/2 (5.0016e-13 at 1e-12) and flips at 1e-11
_JET_ROWS = [(check, argv, 1e-12 if check == "curvature_scale" else 1e-11)
             for check, argv in _DECAY_ARGV]


def _scaled_big_k(real, delta):
    """kappa_log_jet with its K times (1 + delta), w exact."""
    def log_jet(*args):
        big_k, w = real(*args)
        return big_k * (1.0 + delta), w
    return log_jet


@pytest.mark.parametrize("name,argv,threshold", _JET_ROWS,
                         ids=[f"{row[0]}-{row[1][-1]}" for row in _JET_ROWS])
def test_check_fails_on_a_scaled_jet_metric(monkeypatch, name, argv, threshold):
    exact = sf.kappa_log_jet
    for delta, code in ((0.0, 0), (threshold / 10.0, 0), (threshold, 3), (1e-9, 3)):
        monkeypatch.setattr(sf, "kappa_log_jet", _scaled_big_k(exact, delta))
        got, check = _check(argv, name)
        assert (got, check["passed"]) == (code, code == 0), delta


# the constant of each bracket: 6 of the |Rm| radicand 2|w|^2 + 6 Re w + 6, which
# moves |Rm| by delta/2 at kappa = 1 (5.0027e-13 to 5.0049e-13 at 1e-12), and 3 of
# the |II|^2 bracket, which moves |II| by 3 delta/8 (3.7526e-13 at 1e-12): both
# flip at 1e-11
_CONSTANT_ROWS = [(check, argv, *((sf, "_RM_CONSTANT") if check == "curvature_scale"
                                  else (slag, "_II_CONSTANT")), 1e-11)
                  for check, argv in _DECAY_ARGV]


@pytest.mark.parametrize("name,argv,module,term,threshold", _CONSTANT_ROWS,
                         ids=[f"{row[0]}-{row[1][-1]}" for row in _CONSTANT_ROWS])
def test_check_fails_on_a_scaled_bracket_constant(monkeypatch, name, argv, module, term,
                                                  threshold):
    exact = getattr(module, term)
    for delta, code in ((0.0, 0), (threshold / 10.0, 0), (threshold, 3), (1e-9, 3)):
        monkeypatch.setattr(module, term, exact * (1.0 + delta))
        got, check = _check(argv, name)
        assert (got, check["passed"]) == (code, code == 0), delta


def _tilted_fit(real, delta):
    """fit_decay on the samples times r^delta: a decay rate raised by delta."""
    return lambda r, values, model="power": real(r, values * r ** delta, model)


# (check, argv, module whose fit_decay is tilted, the delta at which the check flips
# upward and downward).  The exponent windows are centre +- 0.15, so a check flips at
# +-0.15 less the fit's bias: about 1e-15 at kappa = 1, and -8.76e-6 (|Rm|) and
# -5.90e-6 (|II|) at kappa1 = 0.9.  The rows hold the flips as measured, to 7 digits,
# and each side passes 1e-5 inside its flip and fails 1e-5 outside it
_EXPONENT_ROWS = [
    ("curvature_exponent", ["semiflat", "curvature", "--k", "1"], sf, (0.15, -0.15)),
    ("curvature_exponent", ["semiflat", "curvature", "--k", "1", "--kappa1", "0.9"], sf,
     (0.1499912, -0.1500088)),
    ("pi_exponent", ["slag", "pi-decay", "--k", "1"], slag, (0.15, -0.15)),
    ("pi_exponent", ["slag", "pi-decay", "--k", "1", "--kappa1", "0.9"], slag,
     (0.1499941, -0.1500059))]


@pytest.mark.parametrize("name,argv,module,flips", _EXPONENT_ROWS,
                         ids=[f"{row[0]}-{row[1][-1]}" for row in _EXPONENT_ROWS])
def test_exponent_check_fails_on_a_tilted_decay(monkeypatch, name, argv, module, flips):
    exact = module.fit_decay
    steps = [(0.0, 0)] + [(flip * (1.0 + side), code) for flip in flips
                          for side, code in ((-1e-5, 0), (1e-5, 3))]
    for delta, code in steps:
        monkeypatch.setattr(module, "fit_decay", _tilted_fit(exact, delta))
        got, check = _check(argv, name)
        assert (got, check["passed"]) == (code, code == 0), delta


def _scaled_tau_coefficient(real, delta):
    """_tau_coefficients with A13 = a_tau c, non-zero for every tau, times (1 + delta)."""
    return lambda m, ell: real(m, ell)[:3] + (real(m, ell)[3] * (1.0 + delta),)


def _scaled_psi_shift(real, delta):
    """transport with the cocycle's shift of psi times (1 + delta)."""
    def transport(m, pt, gamma):
        ell, psi, xi1, xi2 = real(m, pt, gamma)
        return ell, pt[1] + (psi - pt[1]) * (1.0 + delta), xi1, xi2
    return transport


# (check, README argv, patched calabi function, its scaled replacement, threshold)
_HKROT_ROWS = [(check, ["hkrot", "--k", k, "--tau", tau], term, scaled, threshold)
               for k, tau, rotation in (("1", "0+1i", 1e-8), ("2", "-1/2+2i", 1e-7))
               for check, term, scaled, threshold in (
                   ("rotation_residual", "_tau_coefficients", _scaled_tau_coefficient,
                    rotation),
                   ("lattice_defect", "transport", _scaled_psi_shift, 1e-9))]


@pytest.mark.parametrize("name,argv,term,scaled,threshold", _HKROT_ROWS,
                         ids=[f"{row[0]}-{row[1][-1]}" for row in _HKROT_ROWS])
def test_hkrot_check_fails_on_a_scaled_term(monkeypatch, name, argv, term, scaled, threshold):
    exact = getattr(cal, term)
    for delta, code in ((0.0, 0), (threshold / 10.0, 0), (threshold, 3)):
        monkeypatch.setattr(cal, term, scaled(exact, delta))
        got, check = _check(argv, name)
        assert (got, check["passed"]) == (code, code == 0), delta


def _scaled_refinement_rule(real, delta):
    """_legendre with the weights of solve-alpha's refinement rule n = 128 times
    (1 + delta) and the n = 64 rule exact, so that the two roots part."""
    def legendre(n):
        nodes, weights = real(n)
        return nodes, (weights * (1.0 + delta) if n == 128 else weights)
    return legendre


_SOLVE = ["glue", "solve-alpha", "--k", "1", "--r", "0.2", "--s", "0.1", "--v0c", "40",
          "--vomc", "62"]
# (check, argv, patched glue name, its scaled replacement, threshold): the
# README argv, and a scale-equation draw for each check; glue.TWO_PI enters
# only u_zz's closed form, which u_zz_fd_rel sets against fourth-order stencils
_GLUE_ROWS = [
    ("refinement_drift", _SOLVE, "_legendre", _scaled_refinement_rule, 1e-5),
    ("refinement_drift", ["glue", "solve-alpha", "--k", "3", "--eps", "2", "--r", "0.15",
                          "--s", "0.05", "--rho-min", "0.01", "--v0c", "50", "--vomc", "75",
                          "--tprime", "0.5"], "_legendre", _scaled_refinement_rule, 1e-4),
    *(("u_zz_fd_rel", ["glue", "potential", "--k", "1", "--rho", rho], "TWO_PI",
       _scaled_constant, 1e-7) for rho in ("0.3", "0.05", "0.85"))]


@pytest.mark.parametrize("name,argv,term,scaled,threshold", _GLUE_ROWS,
                         ids=[f"{row[0]}-{row[1][3]}-{row[1][-1]}" for row in _GLUE_ROWS])
def test_glue_check_fails_on_a_scaled_term(monkeypatch, name, argv, term, scaled, threshold):
    exact = getattr(glue, term)
    for delta, code in ((0.0, 0), (threshold / 10.0, 0), (threshold, 3)):
        monkeypatch.setattr(glue, term, scaled(exact, delta))
        got, check = _check(argv, name)
        assert (got, check["passed"]) == (code, code == 0), delta


_POSITIVITY = ["glue", "positivity", "--k", "1", "--r", "0.1", "--s", "0.02", "--v0c", "1",
               "--vomc", "0.2"]


def _scaled_parts(*names):
    """glue._q_parts, whose parts are (beta, B, psi, u_zz), with each part in names
    times (1 + delta).  "bracket" scales B where rho > r, the glued bracket, which
    holds u - v and (u - v)' and is linear in psi and its two derivatives; below r,
    B is u_zz, which the u_zz row scales through glue.TWO_PI."""
    def scaled(real, delta):
        def parts(cfg, rho, ell):
            beta, bracket, psi, uzz = real(cfg, rho, ell)
            f = 1.0 + delta
            if "bracket" in names:
                bracket = np.where(rho > cfg.r, bracket * f, bracket)
            return (beta * f if "beta" in names else beta, bracket,
                    psi * f if "psi" in names else psi, uzz)
        return parts
    return scaled


# (owner, patched name, its scaled replacement) of each glue term the radial kernel
# reads: u_zz (glue.TWO_PI enters u_zz only; c and d come through semiflat.w_factor),
# beta, psi with the bracket it scales, and the bracket, which holds the match defect
_GLUE_TERMS = [(glue, "TWO_PI", _scaled_constant),
               (glue, "_q_parts", _scaled_parts("beta")),
               (glue, "_q_parts", _scaled_parts("psi", "bracket")),
               (glue, "_q_parts", _scaled_parts("bracket"))]
_GLUE_TERM_IDS = ["u_zz", "beta", "psi", "match_defect"]


# positivity_margin is an identity on these argv, as on every benchmark draw:
# its minimum is d/4 at rho = 0.9 * 0.9999, past r + 3s, where the glued terms
# are 0 and the block is the unglued one.  No glue term scaled by up to 10 %
# moves a bit of it; psi scaled by 1.5 first flips it, at alpha 0.3, as does the
# bracket alone, while beta, which only adds t beta >= 0, flips it at no scale.
@pytest.mark.parametrize("extra", [["--alpha", "1.5"], ["--alpha", "0.3"],
                                   ["--alpha", "1.5", "--t", "146.5872"]],
                         ids=["alpha1.5", "alpha0.3", "t146.5872"])
@pytest.mark.parametrize("owner,term,scaled", _GLUE_TERMS, ids=_GLUE_TERM_IDS)
def test_positivity_margin_unmoved_by_scaled_glue_terms(monkeypatch, extra, owner, term,
                                                        scaled):
    argv = _POSITIVITY + extra
    code, exact_check = _check(argv, "positivity_margin")
    assert code == 0 and exact_check["measured"] == 0.008392281581895528
    exact = getattr(owner, term)
    for delta in (1e-12, 1e-6, 1e-2, 1e-1):
        monkeypatch.setattr(owner, term, scaled(exact, delta))
        assert _check(argv, "positivity_margin") == (0, exact_check), delta


# sign_change is an identity on every report: solve_alpha requires f(1e-3) > 0 and
# falls back to it whenever f(a) <= 0, its doubling loop stops only at f < 0, and its
# kink fallback raises unless f(1) < 0, so f_lo > 0 > f_hi whenever a report is
# written.  Each glue term scaled by up to 10 % moves the bracket values on the
# README argv, and the check still passes.
@pytest.mark.parametrize("owner,term,scaled", _GLUE_TERMS, ids=_GLUE_TERM_IDS)
def test_sign_change_unmoved_by_scaled_glue_terms(monkeypatch, owner, term, scaled):
    code, exact_check = _check(_SOLVE, "sign_change")
    assert code == 0 and exact_check["passed"]
    exact = getattr(owner, term)
    for delta in (1e-12, 1e-6, 1e-2, 1e-1):
        monkeypatch.setattr(owner, term, scaled(exact, delta))
        code, check = _check(_SOLVE, "sign_change")
        assert code == 0 and check["passed"], delta
    assert check["measured"] != exact_check["measured"]


# metric_positive is an identity wherever it reads a verdict: it reads the
# block's smallest eigenvalue as c d / (m + r), and c d = 2 alpha^2 |kappa|^2
# however c, d or Gamma is scaled.  A term scaled by 1 + delta moves it, but
# never to 0; a term dropped (delta = -1) leaves c d = 0, and the report
# divides by zero before any verdict (exit 2).
@pytest.mark.parametrize("owner,term,scaled",
                         [(sf, "w_factor", _scaled_output), (sf, "_TWO_PI_SQ", _scaled_constant),
                          (sf.ModelParams, "kappa_at", _scaled_output)],
                         ids=["w_factor", "two_pi_sq", "kappa"])
def test_metric_positive_holds_under_scaled_terms(monkeypatch, owner, term, scaled):
    argv = ["semiflat", "eval", "--k", "2", "--ell", "5", "--b0", "1/4", "--kappa1", "0.5",
            "--x2", "0.3", "--alpha", "0.3"]
    code, exact_check = _check(argv, "metric_positive")
    assert code == 0 and exact_check["passed"]
    exact = getattr(owner, term)
    for delta in (1e-6, 1e-1, -0.9, 10.0):
        monkeypatch.setattr(owner, term, scaled(exact, delta))
        check = _check(argv, "metric_positive")[1]
        assert check["passed"] and check["measured"] != exact_check["measured"], delta
    monkeypatch.setattr(owner, term, scaled(exact, -1.0))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.run(argv) == 2


def _scaled_row(row):
    """A replacement for a pattern array with its row `row` times (1 + delta)."""
    def scaled(real, delta):
        patterns = real.copy()
        patterns[row] *= 1.0 + delta
        return patterns
    return scaled


def _scaled_second(real, delta):
    """_fundamental_forms with its II array times (1 + delta), the rest exact."""
    def forms(*args):
        second, *rest = real(*args)
        return (second * (1.0 + delta), *rest)
    return forms


_SLAG = ["slag", "check", "--k", "1", "--ell", "10"]
# (check, argv, owner, patched name, its scaled replacement, threshold).
# lagrangian reads |c g_r + c s| / (|c g_r| + |c s|) with g_r = b0 ell/(2 pi^2),
# so its rows have b0 != 0: at b0 = 0, g_r = 0 and no scaling of 2 pi^2 moves
# it.  Scaled by 1 + delta it reads delta/2 on both rows (5.0e-11 at 1e-10,
# 5.0e-10 at 1e-9), so they flip at 1e-9 against its 1e-10.  mean_curvature
# scales the C = 2 pi/ell row of g, dg and ddg left exact: |H|/|II| reads about
# delta/2 (5.0e-8 at 1e-7) against 1e-8, so it flips at 1e-7.  gauss_equation
# reads |K_ambient + Pi| / (|K_ambient| + |Pi|), which II scaled by 1 + delta
# moves to delta (1 - delta/2): 9.999995e-7 at 1e-6, so it flips at 1e-5
# against 1e-6.  lambda1_rel_error scales the Rayleigh estimate, whose relative
# error is delta against a tolerance of 2e-2.
_SLAG_ROWS = [
    *(("lagrangian", argv, sf, "_TWO_PI_SQ", _scaled_constant, 1e-9) for argv in (
        ["slag", "check", "--k", "2", "--b0", "-1", "--cycle", "1,1", "--ell", "10"],
        ["slag", "check", "--k", "3", "--eps", "2", "--b0", "-3/4", "--cycle", "2,1",
         "--ell", "15"])),
    ("mean_curvature", _SLAG, sf, "_PATTERNS", _scaled_row(2), 1e-7),
    ("gauss_equation", _SLAG, slag, "_fundamental_forms", _scaled_second, 1e-5),
    *(("lambda1_rel_error", ["slag", "geometry", *argv], slag, "lambda1_rayleigh",
       _scaled_output, 1e-1) for argv in (
        ["--k", "1"], ["--k", "2", "--eps", "0.5", "--b0", "1/4"],
        ["--k", "3", "--eps", "2", "--cycle", "2,1", "--ell", "30"]))]


@pytest.mark.parametrize("name,argv,owner,term,scaled,threshold", _SLAG_ROWS,
                         ids=[f"{row[0]}-{row[1][3]}" for row in _SLAG_ROWS])
def test_slag_check_fails_on_a_scaled_term(monkeypatch, name, argv, owner, term, scaled,
                                           threshold):
    exact = getattr(owner, term)
    for delta, passed in ((0.0, True), (threshold / 10.0, True), (threshold, False)):
        monkeypatch.setattr(owner, term, scaled(exact, delta))
        got, check = _check(argv, name)
        assert check["passed"] is passed and (got == 3) is not passed, delta


# gauss_equation is an identity under the jet: with any pattern row of g, dg or
# ddg scaled by up to 10 %, II and K_ambient come from one jet and the residual
# stays at most 6.9e-17 of the Gauss terms, while |II| moves by up to 7 %
@pytest.mark.parametrize("term,row", [("_PATTERNS", row) for row in range(3)]
                         + [("_D_PATTERNS", row) for row in range(3)])
def test_gauss_equation_unmoved_by_scaled_jet_patterns(monkeypatch, term, row):
    exact = getattr(sf, term)
    for delta in (1e-6, 1e-3, 1e-1):
        monkeypatch.setattr(sf, term, _scaled_row(row)(exact, delta))
        assert _check(_SLAG, "gauss_equation")[1]["passed"], delta


# the checks no row above perturbs yet: exact identities, fits and
# classifications whose controls need a term that moves them
_NO_ROW_YET = {"dims", "volume_product", "volume_product_minus_one",
               "fit_r_squared", "pole_growth", "power_decay_exponent",
               "stretched_exponent"}


def test_every_check_has_a_row_or_is_listed():
    identities = {"positivity_margin", "metric_positive", "sign_change"}
    floors = {"bounded_ratio"}  # test_floors_flip_at_one_delta_per_unit_scale
    rows = {row[0] for rows in (_ROWS, _JET_ROWS, _CONSTANT_ROWS, _EXPONENT_ROWS, _SEMIFLAT_ROWS,
                                _HKROT_ROWS, _GLUE_ROWS, _SLAG_ROWS) for row in rows} | identities \
        | floors
    assert rows.isdisjoint(_NO_ROW_YET)
    assert rows | _NO_ROW_YET == set(cli._CHECKS)
