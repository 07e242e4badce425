import argparse
import cmath
import contextlib
import datetime
import decimal
import importlib.util
import io
import json
import math
import pathlib
import re
import os
import shlex
import subprocess
import sys
import time
import warnings
from decimal import Decimal
from fractions import Fraction

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from syzlab import calabi, cli, moduli, slag
from syzlab import fibration as fib
from syzlab import semiflat as sfm
from syzlab.numerics import DecayFit
from syzlab.errors import ValidationError

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCHEMA = json.loads((ROOT / "src" / "syzlab" / "report_schema.json").read_text())


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


class TestParsing:
    def test_complex_exact(self):
        val, exact = cli.parse_complex("-1/2+2i")
        assert val == complex(-0.5, 2.0)
        assert exact == (Fraction(-1, 2), Fraction(2))

    def test_complex_unit_imaginary(self):
        val, exact = cli.parse_complex("0+1i")
        assert val == 1j
        assert exact == (Fraction(0), Fraction(1))

    def test_complex_decimal_not_exact(self):
        val, exact = cli.parse_complex("1.5+2.5i")
        assert val == complex(1.5, 2.5)
        assert exact is None

    @pytest.mark.parametrize("text,value", [
        ("1e-1+2i", complex(0.1, 2.0)),
        ("1e-1-2.5E-3i", complex(0.1, -0.0025)),
        ("-3e2+1e+1i", complex(-300.0, 10.0)),
        ("0+1e300i", complex(0.0, 1e300)),
    ])
    def test_complex_exponent_notation(self, text, value):
        assert cli.parse_complex(text) == (value, None)

    @pytest.mark.parametrize("text,value,exact", [
        ("2i", 2j, (Fraction(0), Fraction(2))),
        ("-2i", -2j, (Fraction(0), Fraction(-2))),
        ("-3/4i", -0.75j, (Fraction(0), Fraction(-3, 4))),
        ("2.5i", 2.5j, None),
        ("1e-1i", 0.1j, None),
    ])
    def test_complex_pure_imaginary(self, text, value, exact):
        assert cli.parse_complex(text) == (value, exact)

    def test_complex_rejects_garbage(self):
        # the last three have a part too large for a float
        for text in ("abc", "1+2", "1+i+3", "1e-+2i", "1+-2i", "2ii",
                     "1e-1e-1+2i", "1+2j", "", "0+1e400i", "1e400+1i",
                     "1" + "0" * 400 + "i"):
            with pytest.raises(ValidationError):
                cli.parse_complex(text)

    def test_rational(self):
        assert cli.parse_rational("-1/4") == -0.25
        assert cli.parse_rational("0.25") == 0.25
        assert cli.parse_rational("1/3") == 1.0 / 3.0
        for text in ("1e400", "-1e400", "inf", "nan", "1" + "0" * 400):
            with pytest.raises(ValidationError):
                cli.parse_rational(text)

    @pytest.mark.parametrize("parse,text,want", [
        (cli.parse_complex, "0+1e999999999i", None),
        (cli.parse_complex, "1e-999999999+1i", (1j, None)),
        (cli.parse_complex, "0e-999999999+1i", (1j, None)),
        (cli.parse_rational, "1e999999999", None)])
    def test_extreme_exponent_is_not_expanded(self, parse, text, want):
        # float() reads exponent text; a Fraction of it would build 10^999999999 first
        start = time.perf_counter()
        if want is None:
            with pytest.raises(ValidationError, match="is not finite"):
                parse(text)
        else:
            assert parse(text) == want
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("digits,code", [(cli._DIGITS, 0), (cli._DIGITS + 1, 1),
                                             (2101, 1)])
    def test_exact_integer_length_bound(self, capsys, digits, code):
        # tau = 1/N + (N/M) i with D-digit N and M: the winding has up to 4D + 1 digits,
        # past the 4,300-digit int-to-str limit at D = 2,101
        n, m = "3" + "1" * (digits - 1), "2" + "1" * (digits - 1)
        tau = f"1/{n}+{n}/{m}i"
        got, report, err = run_cli(capsys, "hkrot", "--k", "1", "--tau", tau, "--no-timestamp")
        assert got == code
        if code == 0:
            assert report["results"]["exact"]
            q, p = report["results"]["winding"]
            assert Fraction(-p, q) == -Fraction(1, int(n)) / (
                Fraction(1, int(n)) ** 2 + Fraction(int(n), int(m)) ** 2)
        else:
            assert report is None
            assert err.startswith(f"error: complex literal {tau!r} has an integer of more "
                                  f"than {cli._DIGITS} digits\n")


class TestReports:
    def test_schema_and_exit_zero(self, capsys):
        code, report, _ = run_cli(
            capsys, "semiflat", "residual", "--k", "1", "--no-timestamp")
        assert code == 0
        jsonschema.validate(report, SCHEMA)
        assert report["command"] == "semiflat residual"
        assert all(c["passed"] for c in report["checks"])

    def test_timestamp_default_present(self, capsys):
        code, report, _ = run_cli(capsys, "dims", "--k", "3")
        assert code == 0
        assert "timestamp" in report
        jsonschema.validate(report, SCHEMA)

    def test_deterministic_without_timestamp(self, capsys):
        args = ("slag", "check", "--k", "2", "--cycle", "2,1",
                "--no-timestamp")
        cli.run(list(args))
        first = capsys.readouterr().out
        cli.run(list(args))
        second = capsys.readouterr().out
        assert first == second

    def test_inputs_echoed(self, capsys):
        code, report, _ = run_cli(
            capsys, "mirror", "--k", "1", "--tau", "0+2i", "--no-timestamp")
        assert code == 0
        assert report["inputs"]["tau"] == "0+2i"
        assert report["inputs"]["k"] == 1
        assert "csv" not in report["inputs"]


class TestExitCodes:
    def test_validation_error_is_one(self, capsys):
        code, report, err = run_cli(capsys, "semiflat", "eval", "--k", "1",
                                    "--ell", "2.0", "--bogus", "1")
        assert code == 1
        assert report is None
        assert "usage" in err

    def test_bad_tau_is_one(self, capsys):
        code, _, err = run_cli(capsys, "hkrot", "--k", "1", "--tau", "nope")
        assert code == 1
        assert "error" in err

    def test_numerical_failure_is_two(self, capsys):
        # reserve slope keeps the mass integral positive: no root exists
        code, report, err = run_cli(
            capsys, "glue", "solve-alpha", "--k", "1", "--r", "0.1",
            "--s", "0.02", "--v0c", "1", "--vomc", "0.2", "--no-timestamp")
        assert code == 2
        assert report is None
        assert "numerical failure" in err

    @pytest.mark.parametrize("command,extra", [
        ("positivity", ["--r", "0.1", "--s", "0.02", "--v0c", "1",
                        "--vomc", "0.2"]),
        ("solve-alpha", ["--r", "0.2", "--s", "0.1", "--v0c", "40",
                         "--vomc", "62"]),
    ])
    def test_glue_kappa_is_used(self, capsys, command, extra):
        code, report, err = run_cli(capsys, "glue", command, "--k", "1",
                                    *extra, "--kappa1", "0.5",
                                    "--no-timestamp")
        assert code == 1
        assert report is None
        assert "non-trivial kappa" in err

    @pytest.mark.parametrize("argv", [
        ["positivity", "--r", "0.1", "--s", "0.02", "--v0c", "1",
         "--vomc", "0.2", "--alpha", "nan"],
        ["positivity", "--r", "0.1", "--s", "0.02", "--v0c", "1",
         "--vomc", "0.2", "--t", "nan"],
        ["solve-alpha", "--r", "0.2", "--s", "0.1", "--v0c", "nan",
         "--vomc", "62"],
        ["solve-alpha", "--r", "0.2", "--s", "0.1", "--v0c", "40",
         "--vomc", "62", "--tprime", "nan"],
        ["solve-alpha", "--r", "inf", "--s", "0.1", "--v0c", "40",
         "--vomc", "62"],
    ])
    def test_glue_non_finite_is_one(self, capsys, argv):
        code, report, err = run_cli(capsys, "glue", argv[0], "--k", "1",
                                    *argv[1:], "--no-timestamp")
        assert code == 1
        assert report is None
        assert "must be finite" in err

    @pytest.mark.parametrize("argv", [
        ["semiflat", "residual", "--k", "1", "--eps", "inf"],
        # sample counts are fixed: a count flag is unknown
        ["semiflat", "residual", "--k", "1", "--grid", "0"],
        ["hkrot", "--k", "1", "--tau", "0+1i", "--verify-grid", "0"],
        ["semiflat", "eval", "--k", "1", "--ell", "nan"],
        ["semiflat", "eval", "--k", "1", "--ell", "2", "--b0", "nan"],
        ["semiflat", "eval", "--k", "1", "--ell", "2", "--alpha", "inf"],
        ["semiflat", "pair", "--k", "1", "--kappa1", "nan"],
        ["semiflat", "eval", "--k", "1", "--ell", "0"],
        ["semiflat", "eval", "--k", "1", "--ell", "-1"],
        ["semiflat", "eval", "--k", "1", "--ell", "inf"],
        ["semiflat", "eval", "--k", "1", "--ell", "2", "--theta", "nan"],
        ["semiflat", "eval", "--k", "1", "--ell", "2", "--x1", "nan"],
        # literals too large for a float (exit 2 before)
        ["hkrot", "--k", "1", "--tau", "0+1e400i"],
        ["mirror", "--k", "1", "--tau", "1e400+1i"],
        ["semiflat", "classify-translation", "--k", "1", "--h1", "1e400+0i"],
        ["semiflat", "classify-translation", "--k", "1", "--section-b", "1e400"],
        # tau outside the fundamental domain (mirror exited 0 before)
        ["mirror", "--k", "2", "--tau", "0.5+0.5i"],
        ["mirror", "--k", "2", "--tau", "2+0.1i"],
    ])
    def test_non_finite_or_no_samples_is_one(self, capsys, argv):
        code, report, err = run_cli(capsys, *argv, "--no-timestamp")
        assert code == 1
        assert report is None
        assert "error" in err

    @pytest.mark.parametrize("ell", ["800", "1e4"])
    def test_eval_past_exp_underflow_is_zero(self, capsys, ell):
        # e^{-ell} underflows to 0 here; chart points never form it
        code = cli.run(["semiflat", "eval", "--k", "1", "--ell", ell, "--no-timestamp"])
        report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert code == 0
        jsonschema.validate(report, SCHEMA)

    @pytest.mark.parametrize("argv", [
        ["--ell", "1e9", "--x2", "0.3"],
        ["--b0", "1/4", "--ell", "1e9"],
    ])
    def test_eval_large_ell_metric_positive(self, capsys, argv):
        # the metric's scales differ by about ell^2 here, so eigvalsh on the
        # raw metric rounds its smallest eigenvalue to zero or below; the
        # reference is m - r of the J-invariant block (k = eps = alpha = 1,
        # kappa = 1) in 60-digit decimals
        code, report, _ = run_cli(capsys, "semiflat", "eval", "--k", "1",
                                  *argv, "--no-timestamp")
        assert code == 0
        check = {c["name"]: c for c in report["checks"]}["metric_positive"]
        inputs = report["inputs"]
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            pi = Decimal("3.14159265358979323846264338327950288419716939937511")
            ell, b0 = Decimal(inputs["ell"]), Fraction(inputs["b0"])
            c, d = 2 * pi / ell, ell / pi
            gam2 = (b0.numerator * ell / (2 * pi ** 2 * b0.denominator)) ** 2 \
                + (Decimal(inputs["x2"]) / ell) ** 2
            a_, dd = c, d + c * gam2
            r = (((a_ - dd) / 2) ** 2 + c * c * gam2).sqrt()
            want, high = (a_ + dd) / 2 - r, (a_ + dd) / 2 + r
        assert check["passed"] and check["measured"] == pytest.approx(float(want), rel=1e-14)
        # each eigenvalue of the block comes twice in the 4 x 4 metric
        eig = report["results"]["metric_eigenvalues"]
        assert eig[:2] == [check["measured"]] * 2 and eig[2] == eig[3]
        assert eig[2] == pytest.approx(float(high), rel=1e-15)

    @pytest.mark.parametrize("argv", [
        ["--k", "2", "--ell", "3", "--x2", "0.4", "--b0", "1/4", "--kappa1", "0.5"],
        ["--k", "1", "--ell", "0.7", "--theta", "1.1", "--alpha", "1.7", "--eps", "0.3"],
    ])
    def test_eval_metric_eigenvalues_match_eigvalsh(self, capsys, argv):
        code, report, _ = run_cli(capsys, "semiflat", "eval", *argv, "--no-timestamp")
        assert code == 0
        got = report["results"]["metric_eigenvalues"]
        want = np.linalg.eigvalsh(np.array(report["results"]["metric"]))
        assert got == sorted(got)
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("diag,code", [(-1.0, 3), (0.0, 3), (math.inf, 2),
                                           (math.nan, 2)])
    def test_eval_bad_metric_diagonal_fails_closed(self, capsys, monkeypatch,
                                                   diag, code):
        # the block's ell-ell entry alpha(d + c|Gamma|^2), and alpha d with it
        entries = sfm._form_entries

        def bad_entries(*args):
            _, cg_i, cg_r, c, _ = entries(*args)
            return diag, cg_i, cg_r, c, diag

        monkeypatch.setattr(sfm, "_form_entries", bad_entries)
        assert cli.run(["semiflat", "eval", "--k", "1", "--ell", "2",
                        "--no-timestamp"]) == code
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        if code == 3:
            check = {c["name"]: c for c in json.loads(out)["checks"]}
            assert not check["metric_positive"]["passed"]

    @pytest.mark.parametrize("argv,code", [
        # b0' = (eps/k) b0 overflows in the isometry's slope (twist_slope); below that |II|
        # is finite at every b0, as pi_norm_sq forms no sigma (b0 = 1e200 exited 2 on it)
        (["slag", "pi-decay", "--k", "1", "--b0", "1e308", "--eps", "2"], 2),
        (["slag", "pi-decay", "--k", "1", "--eps", "1e300", "--b0", "1e10"], 2),
        # the lattice defect of transport by tau is not finite (y1 = |tau| ell
        # / c overflows); the closed-form lambda1 rounds to 0 (ZeroDivisionError)
        (["hkrot", "--k", "1", "--tau", "0+1e300i"], 2),
        (["slag", "geometry", "--k", "1", "--ell", "1e-320"], 2),
        # the jet's C g_i^2 overflows on the isometry's image (FloatingPointError)
        (["slag", "check", "--k", "1", "--b0", "1e200"], 2),
        # past the metric jet's bound C_ell,ell = 4 pi/ell^3 underflows: no silent 0.0 passes
        (["slag", "check", "--k", "1", "--ell", "1e308"], 2),
        (["slag", "geometry", "--k", "1", "--ell", "inf"], 1),
        (["slag", "geometry", "--k", "1", "--ell", "nan"], 1),
        # every Monge-Ampere residual is NaN: the reduction must keep it
        (["semiflat", "residual", "--k", "1", "--eps", "1e300"], 2),
        # float64 cannot resolve omega^2 on these exact solutions (exit 3 before)
        (["semiflat", "eval", "--k", "1", "--ell", "2", "--b0", "1e9"], 2),
        (["semiflat", "eval", "--k", "1", "--ell", "2", "--x2", "1e20"], 2),
        (["semiflat", "residual", "--k", "1", "--b0", "1e9"], 2),
        (["semiflat", "residual", "--k", "1", "--eps", "1e9"], 2),
        # eps/k is subnormal, so every distance r overflows
        (["slag", "pi-decay", "--k", "3", "--eps", "1e-320"], 2),
        (["slag", "pi-decay", "--k", "1", "--eps", "5e-324", "--b0", "0", "--cycle", "1,0"], 2),
        # decay samples that underflow to 0 (exit 1 before, as if the input were bad)
        (["semiflat", "classify-translation", "--k", "1", "--h0", "1+5e-324i"], 2),
        # eps itself is subnormal: every distance r overflows
        (["semiflat", "classify-translation", "--k", "1", "--eps", "1e-320", "--h0", "0+1i"], 2),
        # |II|^2 and K_ambient fall below 2^-1022: the Gauss check would
        # compare zeros (exit 0 with gauss_residual 0.0 before)
        (["slag", "check", "--k", "1", "--ell", "4.2e102"], 2),
        (["slag", "check", "--k", "1", "--ell", "8.2e102"], 2),
        # k pi Im tau overflows in rotate's alpha, which is about 1.8e-146
        # (exit 1 before, as if the input were bad)
        (["hkrot", "--k", "100000000", "--tau", "0+1e300i"], 2),
    ])
    def test_numerical_breakdown_exit_codes(self, capsys, argv, code):
        assert cli.run(argv + ["--no-timestamp"]) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert "Traceback" not in err
        assert ("numerical failure" if code == 2 else "must be finite") in err

    @pytest.mark.parametrize("argv", [
        ["semiflat", "curvature", "--k", "1", "--b0", "100"],
        ["semiflat", "curvature", "--k", "9", "--b0", "1e5"],
        ["semiflat", "curvature", "--k", "1", "--b0", "1e200"],
        ["semiflat", "curvature", "--k", "1", "--eps", "1e300", "--b0", "1e10"],
        ["slag", "pi-decay", "--k", "1", "--b0", "1000", "--cycle", "1,0"],
        ["slag", "pi-decay", "--k", "1", "--b0", "1000", "--cycle", "2,1"]])
    def test_b0_reaches_the_scale_checks_through_the_isometry(self, capsys, argv):
        # exit 3 (scales 2.4e-11 to 9.1) or 2 while the metric jet held b0
        code, report, _ = run_cli(capsys, *argv, "--no-timestamp")
        assert code == 0
        scale = next(c for c in report["checks"] if c["name"].endswith("_scale"))
        assert scale["measured"] <= 2e-13

    def test_huge_modulus_mirror_passes(self, capsys):
        # rotate never forms |tau|^2, which overflows past 1.3e154
        code, report, err = run_cli(capsys, "mirror", "--k", "1", "--tau", "0+1e300i",
                                    "--no-timestamp")
        assert code == 0 and err == ""
        assert report["results"]["product"] == 1.0
        assert report["results"]["sf_class"] == "standard"

    def test_huge_modulus_hkrot_passes(self, capsys):
        # transport by tau moves xi2 by 1e200; sf_coordinates squared it
        # alone, which overflowed (exit 2 before)
        code, report, err = run_cli(capsys, "hkrot", "--k", "1", "--tau", "0+1e200i",
                                    "--no-timestamp")
        assert code == 0 and err == ""
        assert max(report["results"]["lattice_defects"].values()) <= 1e-15

    def test_huge_modulus_hkrot_names_the_failure(self, capsys):
        code, report, err = run_cli(capsys, "hkrot", "--k", "1", "--tau", "0+1e300i",
                                    "--no-timestamp")
        assert code == 2 and report is None
        assert "non-finite rotation residual or lattice defect" in err

    @pytest.mark.parametrize("argv", [
        ["slag", "geometry", "--k", "1", "--ell", "1e-320"],
        ["slag", "check", "--k", "1", "--b0", "1e200"],
        ["semiflat", "residual", "--k", "1", "--eps", "1e300"],
    ])
    def test_floating_point_error_is_two_without_warnings(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.run(argv + ["--no-timestamp"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "numerical failure" in err and "Traceback" not in err

    @pytest.mark.parametrize("s", ["1e-300", "1e-17"])
    @pytest.mark.parametrize("command,extra", [
        ("positivity", ["--r", "0.1", "--v0c", "1", "--vomc", "0.2"]),
        ("solve-alpha", ["--r", "0.2", "--v0c", "40", "--vomc", "62"]),
    ])
    def test_glue_unresolvable_s_is_one(self, capsys, command, extra, s):
        # r, r+s, r+2s and r+3s are not distinct in floating point, so the
        # cutoff would divide by zero (exit 2 before)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.run(["glue", command, "--k", "1", *extra, "--s", s,
                            "--no-timestamp"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "s is too small" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["semiflat", "eval", "--k", "1", "--ell", "2", "--b0", "abc"],
        ["semiflat", "classify-translation", "--k", "1", "--section-b", "x"],
        ["semiflat", "eval", "--k", "1", "--ell", "2", "--b0", "1/0"],
    ])
    def test_unparseable_real_is_one(self, capsys, argv):
        assert cli.run(argv + ["--no-timestamp"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "Traceback" not in err
        assert "cannot parse real literal" in err

    def test_failed_check_is_three(self, capsys):
        # b0 = 0 with m2 = 1: C_{1,1} is not Lagrangian (sup 0.159 > 1e-10)
        code, report, _ = run_cli(capsys, "slag", "check", "--k", "1",
                                  "--cycle", "1,1", "--no-timestamp")
        assert code == 3
        jsonschema.validate(report, SCHEMA)
        assert not all(c["passed"] for c in report["checks"])


def _residual_reference(p, q):
    """Relative Monge-Ampere defect at one chart point, in scalar arithmetic."""
    m = sfm.sf_form_chart(p, q)
    lhs = 2.0 * (m[0, 1] * m[2, 3] - m[0, 2] * m[1, 3] + m[0, 3] * m[1, 2])
    rhs = p.alpha ** 2 * 4.0 * abs(p.kappa_at(cmath.exp(-complex(q[0], q[1])))) ** 2
    return abs(lhs - rhs) / rhs


# the R4 sequence's phi, the real root of x^5 = x + 1, and the residual's box
R4_PHI = 1.1673039782614187
RESIDUAL_LO, RESIDUAL_HI = (0.5, -1.0, -1.0, 0.0), (50.0, 1.0, 1.0, 2.0 * math.pi)


def _r4_samples(n):
    """The residual's first n samples in Python floats, rows ell, x1, x2, theta:
    sample i is lo + (hi - lo) frac(i r) with r_j = 1/phi^j."""
    r = [1.0 / R4_PHI ** j for j in range(1, 5)]
    return [[lo + (hi - lo) * (i * rj - math.floor(i * rj))
             for lo, hi, rj in zip(RESIDUAL_LO, RESIDUAL_HI, r)] for i in range(1, n + 1)]


class TestResidualSampling:
    def test_one_call_on_the_per_sample_draws(self, capsys, monkeypatch):
        seen = []
        kernel = sfm.ma_residual
        monkeypatch.setattr(sfm, "ma_residual",
                            lambda p, q: seen.append(np.array(q)) or kernel(p, q))
        code, report, _ = run_cli(capsys, "semiflat", "residual", "--k", "2",
                                  "--eps", "0.7", "--b0", "1/4", "--kappa1", "0.5",
                                  "--no-timestamp")
        assert code == 0
        assert len(seen) == 1
        # sample by sample, the chart point is ell, theta, Re x, Im x
        want = [[ell, theta, x1, x2] for ell, x1, x2, theta in _r4_samples(32 ** 2)]
        assert np.array_equal(seen[0], np.array(want))
        p = sfm.ModelParams(k=2, eps=0.7, b0=0.25, kappa={0: 1.0, 1: 0.5})
        ref = max(_residual_reference(p, q) for q in seen[0])
        assert abs(report["results"]["max_rel_residual"] - ref) <= 2e-15

    def test_phi_is_the_real_root_of_x5_x_1_correctly_rounded(self):
        import mpmath
        with mpmath.workdps(40):
            root = mpmath.findroot(lambda x: x ** 5 - x - 1, 1.17)
            assert abs(root ** 5 - root - 1) < mpmath.mpf(10) ** -38
            # the literal is the float nearest the root
            assert float(root) == R4_PHI

    def test_samples_in_the_box_and_even_per_axis(self):
        samples = _r4_samples(32 ** 2)
        for axis, (lo, hi) in enumerate(zip(RESIDUAL_LO, RESIDUAL_HI)):
            values = [s[axis] for s in samples]
            assert all(lo <= v < hi for v in values)
            bins = [0] * 32
            for v in values:
                bins[int(32 * (v - lo) / (hi - lo))] += 1
            # each of the 32 bins of each axis holds within 6 of its mean 32
            # (it holds 26 to 38); 1,024 independent uniform draws spread
            # binomially, sd 5.6, and each of 200 seeds of numpy's generator
            # put some bin further out, 12 to 16 for the seed used before
            assert max(abs(b - 32) for b in bins) <= 6, (axis, bins)

    def test_drawable_configs_far_below_the_cancellation_bound(self, capsys, monkeypatch):
        # every residual config the benchmark can draw keeps rho = c|Gamma|^2/d
        # a hundredfold below ma_residual's fail-closed bound
        ranges = json.loads((ROOT / "bench" / "design.json").read_text())[
            "ranges"]["semiflat residual"]
        seen = []
        kernel = sfm.ma_residual
        monkeypatch.setattr(sfm, "ma_residual",
                            lambda p, q: seen.append((p, q)) or kernel(p, q))
        worst = 0.0
        for k in ranges["k"]:
            for eps in ranges["eps"]:
                for b0 in ranges["b0"]:
                    for kappa1 in ranges["kappa1"]:
                        code, _, _ = run_cli(capsys, "semiflat", "residual", "--k", str(k),
                                             "--eps", eps, "--b0", b0, "--kappa1", kappa1,
                                             "--no-timestamp")
                        assert code == 0
                        p, q = seen.pop()
                        m = sfm.sf_form_chart(p, q)
                        rho = 2.0 * (m[:, 0, 2] ** 2 + m[:, 0, 3] ** 2) \
                            / (p.alpha ** 2 * sfm.holomorphic_volume_top(p, q))
                        worst = max(worst, float(np.max(rho)))
        assert 100.0 < worst <= 0.01 * sfm.MA_RHO_MAX

    def test_sample_array_too_large_is_two(self, capsys, monkeypatch):
        # all samples go to one call, so an allocation failure is one
        # MemoryError; it is simulated, since a real one would need the memory
        def no_memory(p, q):
            raise MemoryError("Unable to allocate 298. GiB")

        monkeypatch.setattr(sfm, "ma_residual", no_memory)
        assert cli.run(["semiflat", "residual", "--k", "1", "--no-timestamp"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "numerical failure" in err and "Traceback" not in err


class TestHkrotFailsClosed:
    """One NaN rotation residual or lattice defect is exit 2: the
    reductions must not drop it the way the builtin max does."""

    ARGV = ["hkrot", "--k", "2", "--tau", "-1/2+2i", "--no-timestamp"]

    def test_nan_rotation_residual_is_two(self, capsys, monkeypatch):
        real = calabi.verify_rotation
        seen = []

        def nan_once(m, pt):
            seen.append(pt)
            return math.nan if len(seen) == 2 else real(m, pt)

        monkeypatch.setattr(calabi, "verify_rotation", nan_once)
        assert cli.run(self.ARGV) == 2
        out, err = capsys.readouterr()
        assert len(seen) == 75
        assert out == ""
        assert "numerical failure" in err and "Traceback" not in err

    def test_nan_lattice_defect_is_two(self, capsys, monkeypatch):
        real = calabi.lattice_defects
        monkeypatch.setattr(calabi, "lattice_defects",
                            lambda m, pt: {**real(m, pt), "gamma_one": math.nan})
        assert cli.run(self.ARGV) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "numerical failure" in err and "Traceback" not in err

    def test_large_k_rounding_is_no_defect(self, capsys):
        # x1 is near 1e7 here; its rounding (3.7e-9 absolute) exited 3 before
        code, report, _ = run_cli(capsys, "hkrot", "--k", "100000000",
                                  "--tau", "0+1i", "--no-timestamp")
        assert code == 0
        assert max(report["results"]["lattice_defects"].values()) <= 1e-15

    def test_perturbed_transport_is_three(self, capsys, monkeypatch):
        real = calabi.transport

        def nudged(m, pt, gamma):
            ell, psi, xi1, xi2 = real(m, pt, gamma)
            return ell, psi, xi1 + 1e-9, xi2

        monkeypatch.setattr(calabi, "transport", nudged)
        code, report, _ = run_cli(capsys, *self.ARGV)
        assert code == 3
        check = {c["name"]: c for c in report["checks"]}["lattice_defect"]
        assert not check["passed"] and check["measured"] > 1e-10

    def test_points_are_python_floats(self, capsys, monkeypatch):
        # the per-point rotation check costs less on floats than on numpy scalars
        seen = []
        for name in ("verify_rotation", "lattice_defects"):
            def wrapped(m, pt, real=getattr(calabi, name)):
                seen.append(pt)
                return real(m, pt)

            monkeypatch.setattr(calabi, name, wrapped)
        code, _, _ = run_cli(capsys, *self.ARGV)
        assert code == 0
        assert len(seen) == 5 * 5 * 3 + 1
        assert all(type(x) is float for pt in seen for x in pt)

    def test_points_are_linspaces_bits(self):
        # cli writes the grid without numpy; it must keep np.linspace's bits, sign of 0 too
        want = [(ell, 0.0, xi1, xi2) for ell in np.linspace(1.0, 3.0, 5).tolist()
                for xi1 in np.linspace(0.0, 0.6, 5).tolist() for xi2 in (0.2, 0.45, 0.7)]
        assert [[x.hex() for x in pt] for pt in cli._HKROT_POINTS] == \
            [[x.hex() for x in pt] for pt in want]


class TestCommands:
    def test_hkrot_square_example(self, capsys):
        code, report, _ = run_cli(capsys, "hkrot", "--k", "1",
                                  "--tau", "0+1i", "--no-timestamp")
        assert code == 0
        res = report["results"]
        assert res["alpha"] == pytest.approx(math.sqrt(math.pi))
        assert res["eps"] == pytest.approx(
            2.0 * math.pi * math.sqrt(2.0 * math.pi))
        assert res["b0"] == 0.0
        assert res["sf_class"] == "standard"

    def test_hkrot_negative_tau_value(self, capsys):
        code, report, _ = run_cli(capsys, "hkrot", "--k", "2",
                                  "--tau", "-1/2+2i", "--no-timestamp")
        assert code == 0
        assert report["results"]["sf_class"] == "quasi_regular"

    @pytest.mark.parametrize("k,tau,winding,b0", [
        ("3", "-1/2+0.8660254037844386i", [2, -1], 0.75),
        ("1", "0.5+0.8660254037844386i", [2, 1], -0.25)])
    def test_hexagonal_torus_in_float_mode(self, capsys, k, tau, winding, b0):
        # tau = e^(2 pi i/3) or e^(pi i/3): Im tau = sqrt(3)/2 has no exact literal, so float
        # mode classifies -Re tau/|tau|^2 = -+1/2 by its best fraction with denominator <= 1e6
        code, report, _ = run_cli(capsys, "hkrot", "--k", k, "--tau", tau, "--no-timestamp")
        assert code == 0
        res = report["results"]
        assert (res["sf_class"], res["exact"]) == ("quasi_regular", False)
        assert (res["winding"], res["b0"]) == (winding, b0)

    def test_pair_negative_b0(self, capsys):
        code, report, _ = run_cli(
            capsys, "semiflat", "pair", "--k", "2", "--b0", "-1/4",
            "--cycle", "2,1", "--no-timestamp")
        assert code == 0
        assert all(c["passed"] for c in report["checks"])
        assert "grid" not in report["inputs"]

    @pytest.mark.parametrize("count", ["0", "8", "64", "10000000000"])
    def test_pair_takes_no_grid(self, capsys, count):
        # the pairing is one 64 x 64 rule: --grid is an unknown flag, exit 1
        code, report, err = run_cli(capsys, "semiflat", "pair", "--k", "1", "--grid", count)
        assert (code, report) == (1, None)
        assert err.startswith(f"error: unrecognized arguments: --grid {count}\n")

    @pytest.mark.parametrize("words,flag", [
        (["semiflat", "residual", "--k", "1"], "--grid"),
        (["hkrot", "--k", "1", "--tau", "0+1i"], "--verify-grid"),
    ], ids=["residual", "hkrot"])
    @pytest.mark.parametrize("count", ["0", "5", "32", "10000000000"])
    def test_sample_counts_take_no_flag(self, capsys, words, flag, count):
        # residual takes 1,024 R4 points and hkrot 75 fixed points: a count
        # flag is an unknown flag, exit 1
        code, report, err = run_cli(capsys, *words, flag, count)
        assert (code, report) == (1, None)
        assert err.startswith(f"error: unrecognized arguments: {flag} {count}\n")

    def test_mirror_exact_product(self, capsys):
        code, report, _ = run_cli(capsys, "mirror", "--k", "4",
                                  "--tau", "-1/3+7/2i", "--m", "3",
                                  "--no-timestamp")
        assert code == 0
        assert report["results"]["product_exact"] == "1"

    def test_dims(self, capsys):
        code, report, _ = run_cli(capsys, "dims", "--k", "9",
                                  "--no-timestamp")
        assert code == 0
        assert report["results"] == {"semiflat_family": 1, "h2_de_rham": 2,
                                     "hyperkahler_family": 1}

    def test_glue_solve_alpha_close_roots(self, capsys):
        # both roots (near 0.998 and 1.0095) lie between the doubling points
        # 0.512 and 1.024; the kink at alpha = 1 brackets the smaller one
        code, report, _ = run_cli(
            capsys, "glue", "solve-alpha", "--k", "1", "--r", "0.2",
            "--s", "0.1", "--v0c", "60", "--vomc", "62", "--no-timestamp")
        assert code == 0
        res = report["results"]
        assert res["bracket"] == [0.512, 1.0]
        assert res["alpha_star"] == pytest.approx(0.9984464086628753, rel=1e-12)

    def test_glue_positivity(self, capsys):
        code, report, _ = run_cli(
            capsys, "glue", "positivity", "--k", "1", "--r", "0.1",
            "--s", "0.02", "--v0c", "1", "--vomc", "0.2", "--alpha", "1.5",
            "--no-timestamp")
        assert code == 0
        assert report["results"]["margin"] > 0


class TestClosedFormScales:
    @pytest.mark.parametrize("argv,name", [
        (["semiflat", "curvature", "--k", "2", "--eps", "0.7", "--b0", "1/4"], "curvature_scale"),
        (["slag", "pi-decay", "--k", "3", "--eps", "2", "--b0", "-3/4", "--cycle", "2,1"],
         "pi_scale"),
    ])
    def test_scale_checked_when_kappa_is_one(self, capsys, argv, name):
        code, report, _ = run_cli(capsys, *argv, "--no-timestamp")
        assert code == 0
        check = {c["name"]: c for c in report["checks"]}[name]
        assert check["passed"] and check["tolerance"] == 1e-12
        assert check["measured"] <= 1e-14
        code, report, _ = run_cli(capsys, *argv, "--kappa1", "0.5", "--no-timestamp")
        assert code == 0
        assert name not in {c["name"] for c in report["checks"]}

    @pytest.mark.parametrize("argv", [
        ["semiflat", "curvature", "--k", "1", "--eps", "1e-300"],
        ["semiflat", "curvature", "--k", "1", "--eps", "1e200"],
        ["semiflat", "curvature", "--k", "1", "--eps", "1e300"],
        ["slag", "pi-decay", "--k", "1", "--eps", "1e300"],
        ["slag", "pi-decay", "--k", "1", "--b0", "0", "--eps", "1e-300"],
        ["slag", "pi-decay", "--k", "1", "--b0", "0", "--eps", "1e-200"],
        ["slag", "pi-decay", "--k", "1", "--b0", "0", "--eps", "1e200"],
        ["slag", "pi-decay", "--k", "1", "--b0", "0", "--eps", "1e300"],
        ["slag", "pi-decay", "--k", "3", "--eps", "1e308"],
        ["slag", "pi-decay", "--k", "1", "--eps", "1e308", "--b0", "0", "--cycle", "1,0"],
        ["slag", "check", "--k", "1", "--eps", "1e200"],
        ["slag", "check", "--k", "1", "--eps", "1e300"],
    ])
    def test_float_range_of_eps_passes(self, capsys, argv):
        # the normal form scaled by eps/(k alpha) (exit 2 or 3 before: the
        # jet's entries spread from 1e-300 to 1e300, and pi * eps overflowed)
        code, report, err = run_cli(capsys, *argv, "--no-timestamp")
        assert code == 0 and err == ""
        checks = {c["name"]: c for c in report["checks"]}
        if argv[0] == "slag" and argv[1] == "check":
            p = sfm.ModelParams(k=1, eps=float(argv[-1]))
            measured = abs(report["results"]["second_ff_norm"] * sfm.distance_r(p, 10.0)
                           / slag.II_R - 1.0)
        else:
            measured = checks["curvature_scale" if argv[0] == "semiflat" else "pi_scale"][
                "measured"]
        assert measured <= 1e-12

    def test_wrong_scale_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(sfm, "RM_R2", sfm.RM_R2 * (1.0 + 1e-11))
        code, report, _ = run_cli(capsys, "semiflat", "curvature", "--k", "1",
                                  "--no-timestamp")
        assert code == 3
        check = {c["name"]: c for c in report["checks"]}["curvature_scale"]
        assert not check["passed"]


class TestClassifyChecks:
    def test_power_decay_exponent_checked(self, capsys):
        code, report, _ = run_cli(capsys, "semiflat", "classify-translation",
                                  "--k", "1", "--h0", "0+1i", "--h1", "1+0i",
                                  "--no-timestamp")
        assert code == 0
        check = {c["name"]: c for c in report["checks"]}["power_decay_exponent"]
        assert check["passed"]
        assert check["measured"] == report["results"]["fit"]["exponent"]
        assert abs(check["measured"] + 4.0 / 3.0) <= 0.01

    @pytest.mark.parametrize("exponent,code", [(-1.0, 3), (-1.6, 3),
                                               (-1.3, 0), (-1.45, 0)])
    def test_power_decay_window(self, capsys, monkeypatch, exponent, code):
        fit = DecayFit("power", exponent, 0.9999, 9)
        monkeypatch.setattr(sfm, "classify_translation",
                            lambda p, s: (sfm.POWER_DECAY, np.ones(3), np.ones(3), fit))
        got, report, _ = run_cli(capsys, "semiflat", "classify-translation",
                                 "--k", "1", "--h0", "0+1i", "--no-timestamp")
        assert got == code
        jsonschema.validate(report, SCHEMA)
        check = {c["name"]: c for c in report["checks"]}["power_decay_exponent"]
        assert check["passed"] == (code == 0)

    @pytest.mark.parametrize("argv,defect,name", [
        (["--pole"], np.ones(12), "pole_growth"),
        (["--section-b", "1/2"], 2.0 ** np.arange(12), "bounded_ratio"),
        (["--section-b", "1/2"], np.full(12, 1e-15), "bounded_ratio"),
        (["--h0", "0+1i"], 1.0 + np.arange(12) % 2, "fit_r_squared"),
        (["--h0", "1+0i", "--h1", "1+0i"], np.exp(np.arange(12.0)), "stretched_exponent"),
        (["--h0", "1/2+0i"], np.full(12, 1e-13), "isometry_defect"),
    ])
    def test_poisoned_defect_fails_its_check(self, capsys, monkeypatch, argv, defect, name):
        # each corroboration of the variant is a named check that passes on
        # the true defect and fails (exit 3, not a raise) on a poisoned one;
        # no `variant` check passes whatever the samples say
        argv = ["semiflat", "classify-translation", "--k", "1", *argv, "--no-timestamp"]
        code, report, _ = run_cli(capsys, *argv)
        checks = {c["name"]: c for c in report["checks"]}
        assert code == 0 and checks[name]["passed"] and "variant" not in checks
        monkeypatch.setattr(sfm, "translation_defect", lambda p, s, ell, theta: defect)
        code, report, _ = run_cli(capsys, *argv)
        assert code == 3
        jsonschema.validate(report, SCHEMA)
        assert not {c["name"]: c for c in report["checks"]}[name]["passed"]

    @pytest.mark.parametrize("argv,name,code", [
        # a bounded defect below 1e-14 per unit eps/k fails its check (a NumericalError
        # before); b = 1 passes at every eps (exit 3 at eps <= 1e-14 on an absolute floor)
        (["--section-b", "1e-15", "--eps", "1e-300"], "bounded_ratio", 3),
        # samples below 1e-14 made an isometry (no fit before); the section is
        # not a real constant, so the samples are fitted
        (["--h0", "1+0i", "--h1", "1+0i", "--eps", "1e-300"], "stretched_exponent", 0),
    ])
    def test_tiny_defect_is_checked_not_assumed(self, capsys, argv, name, code):
        got, report, _ = run_cli(capsys, "semiflat", "classify-translation", "--k", "1",
                                 *argv, "--no-timestamp")
        assert got == code
        assert {c["name"]: c for c in report["checks"]}[name]["passed"] == (code == 0)

    @pytest.mark.parametrize("argv", [["--pole"], ["--section-b", "1/2"],
                                      ["--h0", "1/2+0i"]])
    def test_other_variants_have_no_exponent_window(self, capsys, argv):
        code, report, _ = run_cli(capsys, "semiflat", "classify-translation",
                                  "--k", "1", *argv, "--no-timestamp")
        assert code == 0
        assert "power_decay_exponent" not in {c["name"] for c in report["checks"]}

    @pytest.mark.parametrize("eps,code,exponent", [("1e-300", 0, -4.0 / 3.0),
                                                   ("1e150", 0, -1.3374939393669663)])
    def test_translation_defect_at_extreme_eps(self, capsys, eps, code, exponent):
        # t = (W eps)^2 |delta|^2 / (2|kappa|^2) underflowed or t^2 overflowed
        # (exit 2 before); the defect itself is a normal float.  At eps = 1e150
        # the window scaled by sqrt(eps) reads the samples of eps = 1; on the
        # fixed window the defect was t, not sqrt(2t), and the exponent -8/3
        # failed its window (exit 3)
        code_, report, _ = run_cli(capsys, "semiflat", "classify-translation", "--k", "1",
                                   "--eps", eps, "--h0", "0+1i", "--no-timestamp")
        assert code_ == code
        assert report["results"]["variant"] == "power_decay"
        assert report["results"]["fit"]["exponent"] == pytest.approx(exponent, abs=1e-9)

    @pytest.mark.parametrize("argv", [
        ["--pole"], ["--section-b", "1"], ["--h0", "0+1i"], ["--h0", "0+2i", "--h1", "1+0i"],
        ["--kappa1", "0.6", "--h0", "0+1i", "--h1", "1+0i"], ["--h0", "1.5+0i", "--h1", "0.3+0i"],
        ["--h0", "1+0i", "--h1", "1+0i"], ["--h0", "0.37+0i"]],
        ids=["pole", "bounded", "power", "power_h1", "power_kappa", "stretched", "stretched_h1",
             "isometry"])
    def test_verdict_free_of_the_scale(self, capsys, argv):
        # the verdict reads the normal-form section eps/k eta (k = 1 here): at every eps
        # from 1e-300 to 1e150 it is that of eps = 1, or float64 fails (exit 2); the fixed
        # window and the absolute floor exited 3 at eps = 7, 1e150 and 1e-15, and eps = 1e6
        # read fit_r_squared 0.987 on the stretched section
        words = ["semiflat", "classify-translation", "--k", "1", *argv]
        code, ref, _ = run_cli(capsys, *words, "--no-timestamp")
        assert code == 0
        verdict = [(c["name"], c["passed"]) for c in ref["checks"]]
        for eps in [*(f"1e{e}" for e in range(-300, 151, 10)), "7", "5", "1e-15", "1e4", "1e6"]:
            got, report, err = run_cli(capsys, *words, "--eps", eps, "--no-timestamp")
            if got == 2:
                assert report is None and "numerical failure" in err, eps
                continue
            assert got == 0, eps
            assert report["results"]["variant"] == ref["results"]["variant"]
            assert [(c["name"], c["passed"]) for c in report["checks"]] == verdict, eps

    def test_translation_defect_free_of_b0(self, capsys):
        # Gamma's real part b0 ell/(2 pi^2) cancels in the defect (exit 2 before)
        argv = ["semiflat", "classify-translation", "--k", "1", "--h0", "0+1i", "--no-timestamp"]
        code, report, _ = run_cli(capsys, *argv, "--b0", "1e9")
        assert code == 0
        _, ref, _ = run_cli(capsys, *argv)
        assert report["results"] == ref["results"] and report["checks"] == ref["checks"]

    @pytest.mark.parametrize("h0", ["1+1e-14i", "1+1e-15i", "1+1e-100i", "1+1e-300i"])
    def test_tiny_imaginary_h0_is_power_decay(self, capsys, h0):
        # any Im h(0) != 0 decays as r^(-4/3); at or below 1e-14 it was taken
        # for exp_decay and failed fit_r_squared (0.9795, exit 3)
        code, report, _ = run_cli(capsys, "semiflat", "classify-translation", "--k", "1",
                                  "--h0", h0, "--no-timestamp")
        assert code == 0
        assert report["results"]["variant"] == "power_decay"
        checks = {c["name"]: c["measured"] for c in report["checks"]}
        assert checks["fit_r_squared"] == pytest.approx(1.0, abs=1e-12)
        assert checks["power_decay_exponent"] == pytest.approx(-4.0 / 3.0, abs=1e-12)

    def test_subnormal_imaginary_h0_underflows(self, capsys):
        code, report, err = run_cli(capsys, "semiflat", "classify-translation", "--k", "1",
                                    "--h0", "1+5e-324i", "--no-timestamp")
        assert (code, report) == (2, None)
        assert "decay samples must be positive" in err


class TestEvalPoint:
    def test_point_built_by_from_ell(self, capsys, monkeypatch):
        seen = []
        from_ell = fib.from_ell
        monkeypatch.setattr(fib, "from_ell",
                            lambda *a: seen.append(a) or from_ell(*a))
        code, report, _ = run_cli(capsys, "semiflat", "eval", "--k", "1",
                                  "--ell", "2.5", "--theta", "0.4", "--x1",
                                  "-0.3", "--x2", "0.7", "--no-timestamp")
        assert code == 0
        assert seen == [(complex(-0.3, 0.7), 2.5, 0.4)]
        q = np.array([2.5, 0.4, -0.3, 0.7])
        assert report["results"]["form"] == \
            sfm.sf_form_chart(sfm.ModelParams(k=1), q).tolist()


class TestCachedParser:
    # one process, one parser: every report must equal a fresh process's
    ARGV = (
        ["semiflat", "residual", "--k", "2", "--alpha", "0.3"],
        ["semiflat", "residual", "--k", "1"],
        ["semiflat", "residual", "--k", "1", "--eps", "2"],
        ["semiflat", "eval", "--k", "1", "--ell", "2.0", "--bogus", "1"],
        ["slag", "check", "--k", "1", "--cycle", "1,1"],
        ["slag", "pi-decay", "--k", "1", "--cycle", "1,0", "--csv", "{csv}"],
        ["hkrot", "--k", "1", "--tau", "-1/2+2i"],
        ["hkrot", "--k", "1", "--tau", "2i"],
        # the models load after the parse: a usage error, a literal _real rejects and
        # --help (SystemExit passes every except clause of run) all come before them
        ["semiflat", "pair", "--k", "1", "--bogus", "1"],
        ["hkrot", "--k", "1", "--tau", "0+1e9999999i"],
        ["dims", "--help"],
    )

    def test_reports_match_fresh_processes(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("COLUMNS", "80")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        codes = set()
        for i, template in enumerate(self.ARGV):
            argv = [a.format(csv=tmp_path / f"{i}.csv") for a in template]
            argv.append("--no-timestamp")
            try:
                code = cli.run(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            csv = (tmp_path / f"{i}.csv").read_text() if "--csv" in argv else None
            fresh = subprocess.run([sys.executable, "-m", "syzlab.cli", *argv],
                                   capture_output=True, text=True, env=env,
                                   timeout=60)
            assert (code, captured.out, captured.err) == \
                (fresh.returncode, fresh.stdout, fresh.stderr), argv
            if csv is not None:
                assert (tmp_path / f"{i}.csv").read_text() == csv
            codes.add(code)
        assert codes == {0, 1, 3}


def _tools_module(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestLeafDispatch:
    """run reads argv through the flag table of the leaf its first words
    name: the Namespace must equal the full parser's, and argv that name no
    leaf, or that a leaf rejects, keep the full parser's exit code and
    stderr."""

    # semiflat eval is in no README example or workload; the negative values
    # go through _join_negative_values
    EXTRA = (["semiflat", "eval", "--k", "1", "--ell", "2", "--b0", "-1/4", "--x1", "-0.3"],
             ["hkrot", "--k", "2", "--tau", "-1/2+2i"])

    @staticmethod
    def _argvs():
        co = _tools_module("compare_outputs")
        workloads = co._load_workloads()
        drawn = [argv for name in workloads.DESIGN["workloads"]
                 for argv in next(workloads.blocks(name, 0))]
        return co.readme_examples() + drawn + [list(a) for a in TestLeafDispatch.EXTRA]

    def test_leaf_namespace_equals_full_parse(self, monkeypatch):
        parser = cli.build_parser()
        argvs = self._argvs()
        full = [parser.parse_args(cli._join_negative_values(argv)) for argv in argvs]
        # every one is read by its leaf's flag table: neither the full parser
        # nor a leaf parser is reached
        for leaf in parser.leaves.values():
            monkeypatch.setattr(leaf, "parse_args", None)
        for argv, want in zip(argvs, full):
            got = cli._parse(parser, argv)
            assert got == want and got.handler is want.handler, argv
        named = {words for argv in argvs for words in parser.leaves
                 if words and tuple(argv[:len(words)]) == words}
        assert named == set(parser.leaves) - {()} and len(named) == 14

    @pytest.mark.parametrize("argv,message", [
        ([], "required: command"),
        (["semiflat"], "required: subcommand"),
        (["slag", "bogus", "--k", "1"], "invalid choice: 'bogus'"),
        (["glue", "positivity", "--k", "1", "--s", "0.02", "--v0c", "1", "--vomc", "0.2"],
         "required: --r"),
        (["dims"], "required: --k"),
    ])
    def test_no_leaf_keeps_the_full_parsers_error(self, capsys, argv, message):
        parser = cli.build_parser()
        with pytest.raises(ValidationError) as exc:
            parser.parse_args(argv)
        usage = io.StringIO()
        parser.print_usage(usage)
        code, report, err = run_cli(capsys, *argv)
        assert (code, report) == (1, None)
        assert err == f"error: {exc.value}\n{usage.getvalue()}"
        assert message in err


LEAF_WORDS = sorted(w for w in cli.build_parser().leaves if w)
# values for any flag: good and bad ints, floats and strings, negative ones
# in both float spellings, and tokens that look like flags
_FLAG_VALUES = ("1", "2", "0", "5", "0.5", "1e-3", "-1", "-0.3", "-1e-3", "-inf",
                "nan", "x", "", "1/4", "-1/4", "1,0", "fiber", "0+1i", "-h", "--k")
# values that each type converts, drawn most of the time
_GOOD_VALUES = {int: ("1", "2", "-3"),
                cli.parse_rational: ("0.5", "2", "-0.3", "-1e-3", "1E2", "1/4", "-1/4"),
                bool: ("1/4", "-1/4", "fiber", "1,0", "0+1i"), str: ("1/4", "-1/4", "1,0")}


@st.composite
def _leaf_argv(draw, flags: cli._FlagTable) -> list[str]:
    """argv for one leaf: its required flags, each maybe dropped, and a few
    more of its flags, spelled exactly, abbreviated or as `--flag=value`,
    with stray tokens (-h, --help, --, a bare value) mixed in."""
    spellings = sorted(flags.spellings) + ["-h", "--help"]
    value_flags = {flag for flag, (_, kind) in flags.spellings.items() if kind is not bool}
    chosen = [f for f in sorted(flags.required) if draw(st.integers(0, 19)) < 19]
    chosen += draw(st.lists(st.sampled_from(spellings), max_size=3, unique=draw(st.booleans())))
    argv = []
    for flag in draw(st.permutations(chosen)):
        form = draw(st.sampled_from(("exact",) * 6 + ("abbrev", "eq")))
        if form == "abbrev" and len(flag) > 3:
            flag = flag[:draw(st.integers(3, len(flag) - 1))]
        entry = flags.spellings.get(flag)
        good = () if entry is None or draw(st.integers(0, 3)) == 3 else _GOOD_VALUES[entry[1]]
        value = draw(st.sampled_from(good or _FLAG_VALUES))
        if flag in value_flags and form == "eq":
            argv.append(f"{flag}={value}")
        elif flag in value_flags or flag not in flags.spellings:
            argv += [flag, value] if draw(st.integers(0, 9)) < 9 else [flag]
        else:
            argv.append(flag)
    if draw(st.integers(0, 9)) == 9:
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(("--", "-h", "--help", "x"))))
    return argv


class TestFlagTable:
    """A leaf's flag table reads argv without argparse, or returns None and
    leaves it to the leaf's parse_args; whatever it reads, parse_args would
    read to the same Namespace."""

    @given(data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_none_or_the_leaf_parsers_namespace(self, data):
        leaf = cli.build_parser().leaves[data.draw(st.sampled_from(LEAF_WORDS))]
        argv = data.draw(_leaf_argv(leaf.flags))
        argv = cli._join_negative_values(argv)
        got = leaf.flags.read(argv)
        if got is not None:
            want = leaf.parse_args(argv)
            # by repr, so that a nan value (--s nan) compares equal to itself
            assert repr(sorted(vars(got).items())) == repr(sorted(vars(want).items())), argv
            assert got.handler is want.handler, argv

    @pytest.mark.parametrize("words", LEAF_WORDS, ids=" ".join)
    def test_leaf_parser_matches_its_table(self, words):
        # the table reads every valid argv and the lazily built leaf parser
        # the rest: the same spellings, types, defaults and required flags
        flags, leaf = cli.build_parser().leaves[words].flags, cli._tree()[words]
        actions = [a for a in leaf._actions if a.dest != "help"]
        assert all(len(a.option_strings) == 1 for a in actions)
        assert {a.option_strings[0]: (a.dest, bool if isinstance(
            a, argparse._StoreTrueAction) else a.type) for a in actions} == flags.spellings
        assert {a.option_strings[0] for a in actions if a.required} == flags.required
        assert {**leaf._defaults, **{a.dest: a.default for a in actions if not a.required}} \
            == flags.defaults

    GLUE = ["--k", "1", "--r", "0.2", "--s", "0.1", "--v0c", "40", "--vomc", "62"]

    @pytest.mark.parametrize("words,argv", [
        (("glue", "solve-alpha"), GLUE + ["--tp", "2"]),          # abbreviation
        (("dims",), ["--k", "1", "--k", "2"]),                    # repeat
        (("dims",), ["--k", "1", "--k=2"]),
        (("dims",), ["--k", "1", "--help"]),
        (("dims",), ["-h"]),
        (("dims",), ["--k", "1", "--csv"]),                       # missing value
        (("dims",), ["--k", "1", "--"]),
        (("dims",), ["--", "--k", "1"]),
        (("dims",), ["--k", "x"]),                                # bad value
        (("semiflat", "pair"), ["--k", "1", "--grid", "0"]),      # unknown flag
        (("dims",), []),                                          # missing required
        (("dims",), ["--k", "1", "--no-timestamp=1"]),
        (("dims",), ["--k", "1", "2"]),
        (("semiflat", "classify-translation"), ["--k", "1", "--pole", "-1"]),
    ])
    def test_declines_and_argparse_decides(self, words, argv):
        parser = cli.build_parser()
        leaf = parser.leaves[words]
        folded = cli._join_negative_values(argv)
        assert leaf.flags.read(folded) is None
        try:
            want = leaf.parse_args(folded)
        except (ValidationError, SystemExit) as exc:
            want = type(exc)
        try:
            got = cli._parse(parser, [*words, *argv])
        except (ValidationError, SystemExit) as exc:
            got = type(exc)
        assert got == want

    def test_equals_form_is_read(self, monkeypatch):
        parser = cli.build_parser()
        leaf = parser.leaves[("glue", "solve-alpha")]
        want = leaf.parse_args(self.GLUE + ["--tprime", "2"])
        monkeypatch.setattr(leaf, "parse_args", None)
        argv = ["glue", "solve-alpha", *self.GLUE, "--tprime=2", "--no-timestamp"]
        assert cli._parse(parser, argv) == argparse.Namespace(**{**vars(want), "no_timestamp": True})

    @pytest.mark.parametrize("words,flag", [(("semiflat", "eval"), "--x1"),
                                            (("glue", "positivity"), "--alpha"),
                                            (("semiflat", "curvature"), "--kappa1")])
    def test_exponent_spelling_of_a_negative_real(self, capsys, words, flag):
        base = {("semiflat", "eval"): ["--k", "1", "--ell", "2"],
                ("glue", "positivity"): ["--k", "1", "--r", "0.1", "--s", "0.02",
                                         "--v0c", "1", "--vomc", "0.2"],
                ("semiflat", "curvature"): ["--k", "1"]}[words]
        parser = cli.build_parser()
        outputs = set()
        for value in ([flag, "-0.001"], [flag, "-1e-3"], [f"{flag}=-1e-3"], [flag, "-1E-3"]):
            argv = [*words, *base, *value, "--no-timestamp"]
            assert getattr(cli._parse(parser, argv), flag[2:]) == -0.001
            code = cli.run(argv)
            outputs.add((code, *capsys.readouterr()))
        assert len(outputs) == 1

    def test_never_folds_after_a_store_true_flag(self, capsys):
        code, report, err = run_cli(capsys, "semiflat", "classify-translation",
                                    "--k", "1", "--pole", "-1")
        assert (code, report) == (1, None)
        assert err.startswith("error: unrecognized arguments: -1\n")


# a value for each required flag, so that any leaf runs with one real flag set
_REQUIRED_VALUES = {"--k": "1", "--tau": "0+1i", "--ell": "2", "--r": "0.1", "--s": "0.02",
                    "--v0c": "1", "--vomc": "0.2"}
# every (command words, real flag) of the grammar: a new real flag is covered here
_REAL_FLAGS = [(words, flag) for words, (_, flags) in cli._LEAVES.items()
               for flag, kind, _ in flags if kind is cli.parse_rational]
_REAL_IDS = [" ".join(words) + " " + flag for words, flag in _REAL_FLAGS]


def _with_flag(words, flag, value):
    """argv of the command words with its required flags and flag set to value."""
    argv = [*words]
    for spelling, _, default in cli._LEAVES[words][1]:
        if default is cli._REQUIRED and spelling != flag:
            argv += [spelling, _REQUIRED_VALUES[spelling]]
    return argv + [flag, value, "--no-timestamp"]


class TestRealFlags:
    """Every real flag reads its value through cli._real at parse time: one
    rule for every spelling, and argparse's error, with _real's words, for a
    literal it rejects."""

    def test_no_flag_is_read_by_float(self):
        assert {flag for _, flag in _REAL_FLAGS} >= {
            "--eps", "--b0", "--kappa1", "--alpha", "--r", "--s", "--rho-min", "--rho-max",
            "--v0c", "--vomc", "--ell", "--theta", "--x1", "--x2", "--rho", "--t", "--tprime",
            "--section-b"}
        assert all(kind is not float for _, flags in cli._LEAVES.values() for _, kind, _ in flags)

    @pytest.mark.parametrize("words,flag", _REAL_FLAGS, ids=_REAL_IDS)
    def test_spellings_of_one_value_give_one_report(self, capsys, words, flag):
        parser = cli.build_parser()
        outputs = set()
        for text in ("1/2", "0.5", "5e-1"):
            argv = _with_flag(words, flag, text)
            assert getattr(cli._parse(parser, argv), flag[2:].replace("-", "_")) == 0.5
            outputs.add((cli.run(argv), *capsys.readouterr()))
        assert len(outputs) == 1

    @pytest.mark.parametrize("words,flag", _REAL_FLAGS, ids=_REAL_IDS)
    def test_negative_value_in_its_own_token(self, words, flag):
        parser = cli.build_parser()
        for text, want in (("-1/4", -0.25), ("-1e-3", -0.001)):
            argv = _with_flag(words, flag, text)
            assert getattr(cli._parse(parser, argv), flag[2:].replace("-", "_")) == want

    @pytest.mark.parametrize("words,flag", _REAL_FLAGS, ids=_REAL_IDS)
    def test_rejected_literal_is_one(self, capsys, words, flag):
        for text in ("1/0", "abc", "nan", "inf", "1e400", "1" * (cli._DIGITS + 1)):
            with pytest.raises(ValidationError) as exc:
                cli.parse_rational(text)
            assert cli.run(_with_flag(words, flag, text)) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith(f"error: argument {flag}: {exc.value}\n")


class TestPotentialRounding:
    """glue potential's fourth-order stencils at h = 1e-3 rho round to about
    2^-53 ell^2 / 1.125e-6 of u_zz, ell = -log rho; where that reaches
    u_zz_fd_rel's tolerance the report fails closed."""

    @staticmethod
    def _bound(ell):
        return 2.0 ** -53 * ell ** 2 / 1.125e-6

    @pytest.mark.parametrize("k,eps", [(1, "1"), (3, "0.7")])
    def test_bound_against_exact_u_zz(self, capsys, k, eps):
        import mpmath
        ratios = []
        # up to ell = 10, where the bound is 9.9e-9, just inside the tolerance
        for ell in np.linspace(1.0, 10.0, 37).tolist():
            rho = math.exp(-ell)
            code, report, _ = run_cli(capsys, "glue", "potential", "--k", str(k), "--eps", eps,
                                      "--rho", repr(rho), "--no-timestamp")
            assert code in (0, 3)
            with mpmath.workdps(40):
                big_l = -mpmath.log(mpmath.mpf(rho))
                exact = k * big_l / (2 * mpmath.pi * mpmath.mpf(float(eps)) * mpmath.mpf(rho) ** 2)
                err = abs(mpmath.mpf(report["results"]["u_zz_fd"]) - exact) / exact
            ratios.append(float(err) / self._bound(float(big_l)))
        # the stencils' error stays within a small factor of the bound, and reaches it
        assert 0.5 <= max(ratios) <= 3.0

    @pytest.mark.parametrize("k,rho", [("1", "1e-10"), ("100000000", "1e-7")])
    def test_unresolvable_is_two(self, capsys, k, rho):
        # the bound reads 5.2e-8 and 2.6e-8 (u_zz_fd_rel 6.0e-8, exit 3 before)
        code, report, err = run_cli(capsys, "glue", "potential", "--k", k, "--rho", rho,
                                    "--no-timestamp")
        assert (code, report) == (2, None)
        assert err.startswith("numerical failure: u_zz_fd_rel cannot be resolved")

    def test_benchmark_range_is_reported(self, capsys):
        # the benchmark draws rho from [0.05, 0.85]: ell <= 3.0 and the bound <= 8.9e-10
        ranges = json.loads((ROOT / "bench" / "design.json").read_text())["ranges"]
        lo, hi = ranges["glue potential"]["rho"]["uniform"]
        assert self._bound(-math.log(lo)) < 1e-9
        for rho in (lo, hi):
            code, report, _ = run_cli(capsys, "glue", "potential", "--k", "1", "--rho", repr(rho),
                                      "--no-timestamp")
            assert code == 0 and report["checks"][0]["measured"] < 1e-9


_JSON_STRINGS = st.one_of(st.text(), st.sampled_from(
    ['"', "\\", "\x00", "\x1f\x7f", "\u2028", "é", "\ud800", "💡", "a\"b\\c\n"]))
_JSON_FLOATS = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.sampled_from([-0.0, 5e-324, 1e308, 0.1 + 0.2]))
# np.float64 is a float subclass, as bool is an int subclass: both go with their base type
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), _JSON_FLOATS,
              _JSON_FLOATS.map(np.float64), _JSON_STRINGS),
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(_JSON_STRINGS, kids, max_size=4)),
    max_leaves=20)


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False)


class TestRender:
    """The report writer gives json.dumps(indent=2, sort_keys=True,
    allow_nan=False) byte for byte, and its errors."""

    @given(results=st.dictionaries(_JSON_STRINGS, _JSON_VALUES, max_size=5),
           checks=st.lists(_JSON_VALUES, max_size=3), subcommand=st.sampled_from([None, "eval"]),
           no_timestamp=st.booleans())
    @example(results={"fit": (np.float64(-0.5), {"b": [np.float64(1e308)], "a": ()}),
                      "t": (None, True, 3, {"z": {}, "y": ("s",)})},
             checks=[{"tolerance": np.float64(0.0), "passed": False}, (1.5, [np.float64(2.0)])],
             subcommand="eval", no_timestamp=False)
    @settings(max_examples=300, deadline=None)
    def test_equals_json_dumps(self, results, checks, subcommand, no_timestamp):
        # the writer lays out the top-level keys itself: timestamp, when there is one, between
        # results and version, as sort_keys puts it
        args = argparse.Namespace(command="semiflat", subcommand=subcommand, k=1, b0="-1/4",
                                  handler=None, csv=None, no_timestamp=no_timestamp)
        text = cli._render(args, results, checks)
        report = {"command": "semiflat" + (f" {subcommand}" if subcommand else ""),
                  "inputs": cli._echo_inputs(args), "results": results, "checks": checks,
                  "version": cli.__version__}
        if not no_timestamp:
            stamp = report["timestamp"] = json.loads(text)["timestamp"]
            assert datetime.datetime.fromisoformat(stamp).utcoffset() == datetime.timedelta(0)
        assert text == _dumps(report)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan"),
                                       [1.0, {"a": -math.inf}]])
    def test_non_finite_raises_jsons_error(self, value):
        with pytest.raises(ValueError) as want:
            _dumps(value)
        with pytest.raises(ValueError) as got:
            cli._json(value, "\n")
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("value", [object(), np.int64(1), np.bool_(True), {1j}])
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            _dumps(value)
        with pytest.raises(TypeError):
            cli._json(value, "\n")

    def test_non_str_key_raises_type_error(self):
        # json.dumps writes {"1": 2.0}; _json takes str keys only, as every report has
        with pytest.raises(TypeError):
            cli._json({1: 2.0}, "\n")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_report_is_two(self, capsys, monkeypatch, value):
        # no flag reaches this: every input is validated before its handler
        monkeypatch.setattr(moduli, "moduli_dims", lambda k: (value, 11 - k, 10 - k))
        code, report, err = run_cli(capsys, "dims", "--k", "1", "--no-timestamp")
        assert (code, report) == (2, None)
        assert err == ("numerical failure: report holds a non-finite value (Out of range"
                       f" float values are not JSON compliant: {value!r})\n")


class TestCsv:
    def test_decay_curve_written(self, capsys, tmp_path):
        out = tmp_path / "decay.csv"
        code, report, _ = run_cli(capsys, "slag", "pi-decay", "--k", "1",
                                  "--cycle", "1,0", "--csv", str(out),
                                  "--no-timestamp")
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "r,value"
        assert len(lines) > 3
        for row in lines[1:]:
            r, v = row.split(",")
            assert float(r) > 0
            float(v)

    def test_csv_rejected_without_curve(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "dims", "--k", "1",
                               "--csv", str(tmp_path / "x.csv"))
        assert code == 1
        assert "decay curve" in err

    @pytest.mark.parametrize("where,reason", [(".", "Is a directory"),
                                              ("missing/x.csv", "No such file or directory")])
    def test_unwritable_path_is_one(self, capsys, tmp_path, where, reason):
        path = str(tmp_path / where)
        code, report, err = run_cli(capsys, "semiflat", "curvature", "--k", "1",
                                    "--csv", path)
        assert (code, report) == (1, None)
        usage = io.StringIO()
        cli.build_parser().print_usage(usage)
        assert err == f"error: cannot write --csv {path!r}: {reason}\n{usage.getvalue()}"


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


class TestReadme:
    def test_examples_exit_zero_with_strict_json(self, capsys, tmp_path):
        text = (ROOT / "README.md").read_text()
        lines = [line for block in re.findall(r"```sh\n(.*?)```", text, re.S)
                 for line in block.splitlines() if line.startswith("syzlab ")]
        assert len(lines) >= 10
        for line in lines:
            argv = [str(tmp_path / a) if a.endswith(".csv") else a
                    for a in shlex.split(line)[1:]]
            code = cli.run(argv)
            report = json.loads(capsys.readouterr().out,
                                parse_constant=_reject_constant)
            assert code == 0, line
            jsonschema.validate(report, SCHEMA)


# finite (positive ones reach the kernels), zero, infinite, NaN and huge
_GATE_VALUES = st.one_of(
    st.floats(0.05, 20.0),
    st.floats(-50.0, 50.0),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300,
                     1.7e308, 1e-300, 5e-324]),
)
_GATE_COMMANDS = [
    (["semiflat", "eval", "--k", "1", "--ell", "2"],
     ["--ell", "--theta", "--x1", "--x2", "--eps", "--b0", "--alpha", "--kappa1"]),
    (["semiflat", "pair", "--k", "2", "--cycle", "2,1"],
     ["--eps", "--b0", "--alpha", "--kappa1"]),
    (["semiflat", "residual", "--k", "1"],
     ["--eps", "--b0", "--alpha", "--kappa1"]),
    (["slag", "check", "--k", "1"], ["--ell", "--eps", "--b0", "--kappa1"]),
    (["hkrot", "--k", "1"], ["tau"]),
]


def _set_flag(argv, flag, value):
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]


class TestArgvGate:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_edge_values_keep_the_exit_contract(self, data):
        base, flags = data.draw(st.sampled_from(_GATE_COMMANDS))
        argv = list(base) + ["--no-timestamp"]
        for flag in data.draw(st.lists(st.sampled_from(flags), min_size=1,
                                       max_size=2, unique=True)):
            if flag == "tau":
                re_s, im_s = repr(data.draw(_GATE_VALUES)), repr(data.draw(_GATE_VALUES))
                _set_flag(argv, "--tau", re_s + ("" if im_s[0] == "-" else "+") + im_s + "i")
            else:
                _set_flag(argv, flag, repr(data.draw(_GATE_VALUES)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)  # an escaping exception fails the test
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err, argv
        if code in (1, 2):
            assert out == "", argv
            return
        report = json.loads(out, parse_constant=_reject_constant)
        jsonschema.validate(report, SCHEMA)
        assert all(c["passed"] for c in report["checks"]) == (code == 0), argv
        for c in report["checks"]:
            if c["passed"] and isinstance(c["measured"], float):
                assert math.isfinite(c["measured"]), argv
