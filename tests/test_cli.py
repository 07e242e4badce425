import cmath
import contextlib
import io
import json
import math
import pathlib
import re
import os
import shlex
import subprocess
import sys
import warnings
from fractions import Fraction

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzlab import calabi, cli
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


class TestReports:
    def test_schema_and_exit_zero(self, capsys):
        code, report, _ = run_cli(
            capsys, "semiflat", "residual", "--k", "1", "--grid", "8",
            "--no-timestamp")
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
        # raw metric rounds its smallest eigenvalue to zero or below
        code, report, _ = run_cli(capsys, "semiflat", "eval", "--k", "1",
                                  *argv, "--no-timestamp")
        assert code == 0
        check = {c["name"]: c for c in report["checks"]}["metric_positive"]
        assert check["passed"] and check["measured"] > 0.5
        assert len(report["results"]["metric_eigenvalues"]) == 4

    @pytest.mark.parametrize("diag,code", [(-1.0, 3), (0.0, 3), (math.inf, 2),
                                           (math.nan, 2)])
    def test_eval_bad_metric_diagonal_fails_closed(self, capsys, monkeypatch,
                                                   diag, code):
        def metric(p, q):
            return np.diag([1.0, diag, 1.0, 1.0])

        monkeypatch.setattr(sfm, "riemannian_metric_chart", metric)
        assert cli.run(["semiflat", "eval", "--k", "1", "--ell", "2",
                        "--no-timestamp"]) == code
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        if code == 3:
            check = {c["name"]: c for c in json.loads(out)["checks"]}
            assert not check["metric_positive"]["passed"]

    @pytest.mark.parametrize("argv,code", [
        # singular metric in the finite-difference layer (LinAlgError)
        (["slag", "pi-decay", "--k", "1", "--eps", "1e300"], 2),
        (["semiflat", "curvature", "--k", "1", "--eps", "1e300"], 2),
        # the lattice defect of transport by tau is not finite (y1 = |tau| ell
        # / c overflows); ZeroDivisionError in fiber_geometry
        (["hkrot", "--k", "1", "--tau", "0+1e300i"], 2),
        (["slag", "geometry", "--k", "1", "--ell", "1e-320"], 2),
        # the report would hold NaN: strict JSON refuses it before any output
        (["slag", "check", "--k", "1", "--eps", "1e300"], 2),
        # a step of 2e-310 leaves ell = 1e308 unchanged: no silent 0.0 passes
        (["slag", "check", "--k", "1", "--ell", "1e308"], 2),
        (["slag", "geometry", "--k", "1", "--ell", "inf"], 1),
        (["slag", "geometry", "--k", "1", "--ell", "nan"], 1),
        # every Monge-Ampere residual is NaN: the reduction must keep it
        (["semiflat", "residual", "--k", "1", "--eps", "1e300", "--grid", "2"], 2),
        # float64 cannot resolve omega^2 on these exact solutions (exit 3 before)
        (["semiflat", "eval", "--k", "1", "--ell", "2", "--b0", "1e9"], 2),
        (["semiflat", "eval", "--k", "1", "--ell", "2", "--x2", "1e20"], 2),
        (["semiflat", "residual", "--k", "1", "--grid", "8", "--b0", "1e9"], 2),
        (["semiflat", "residual", "--k", "1", "--grid", "8", "--eps", "1e9"], 2),
    ])
    def test_numerical_breakdown_exit_codes(self, capsys, argv, code):
        assert cli.run(argv + ["--no-timestamp"]) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert "Traceback" not in err
        assert ("numerical failure" if code == 2 else "must be finite") in err

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
        ["slag", "check", "--k", "1", "--eps", "1e300"],
        ["semiflat", "residual", "--k", "1", "--eps", "1e300", "--grid", "2"],
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
        # sample by sample, the draws are ell, Re x, Im x, theta
        rng = np.random.default_rng(20260826)
        want = []
        for _ in range(32 ** 2):
            ell = rng.uniform(0.5, 50.0)
            x1, x2 = rng.uniform(-1, 1), rng.uniform(-1, 1)
            want.append([ell, rng.uniform(0.0, 2.0 * math.pi), x1, x2])
        assert np.array_equal(seen[0], np.array(want))
        p = sfm.ModelParams(k=2, eps=0.7, b0=0.25, kappa={0: 1.0, 1: 0.5})
        ref = max(_residual_reference(p, q) for q in seen[0])
        assert abs(report["results"]["max_rel_residual"] - ref) <= 2e-15

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
        # all samples go to one call, so a huge --grid fails on allocation;
        # the failure is simulated, since a real one would need the memory
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
        code, _, _ = run_cli(capsys, *self.ARGV, "--verify-grid", "3")
        assert code == 0
        assert len(seen) == 3 * 3 * 3 + 1
        assert all(type(x) is float for pt in seen for x in pt)


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

    def test_pair_negative_b0(self, capsys):
        code, report, _ = run_cli(
            capsys, "semiflat", "pair", "--k", "2", "--b0", "-1/4",
            "--cycle", "2,1", "--grid", "16", "--no-timestamp")
        assert code == 0
        assert all(c["passed"] for c in report["checks"])

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
        dc = sfm.DecayClass(sfm.POWER_DECAY, fit, None, np.ones(3), np.ones(3))
        monkeypatch.setattr(sfm, "classify_translation", lambda p, s: dc)
        got, report, _ = run_cli(capsys, "semiflat", "classify-translation",
                                 "--k", "1", "--h0", "0+1i", "--no-timestamp")
        assert got == code
        jsonschema.validate(report, SCHEMA)
        check = {c["name"]: c for c in report["checks"]}["power_decay_exponent"]
        assert check["passed"] == (code == 0)

    @pytest.mark.parametrize("argv", [["--pole"], ["--section-b", "1/2"],
                                      ["--h0", "1/2+0i"]])
    def test_other_variants_have_no_exponent_window(self, capsys, argv):
        code, report, _ = run_cli(capsys, "semiflat", "classify-translation",
                                  "--k", "1", *argv, "--no-timestamp")
        assert code == 0
        assert "power_decay_exponent" not in {c["name"] for c in report["checks"]}


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
        ["semiflat", "residual", "--k", "1", "--grid", "4"],
        ["semiflat", "residual", "--k", "1"],
        ["semiflat", "residual", "--k", "1", "--grid", "2"],
        ["semiflat", "eval", "--k", "1", "--ell", "2.0", "--bogus", "1"],
        ["slag", "check", "--k", "1", "--cycle", "1,1"],
        ["slag", "pi-decay", "--k", "1", "--cycle", "1,0", "--csv", "{csv}"],
        ["hkrot", "--k", "1", "--tau", "-1/2+2i"],
        ["hkrot", "--k", "1", "--tau", "2i"],
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
            code = cli.run(argv)
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
    (["semiflat", "pair", "--k", "2", "--cycle", "2,1", "--grid", "8"],
     ["--eps", "--b0", "--alpha", "--kappa1"]),
    (["semiflat", "residual", "--k", "1", "--grid", "8"],
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
