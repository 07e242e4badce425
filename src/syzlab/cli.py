"""Command-line front end: JSON verification reports and CSV decay curves.

Exit codes: 0 all checks pass, 1 validation error, 2 numerical failure,
3 one or more checks failed.  Reports are deterministic for fixed flags;
the timestamp is suppressed with --no-timestamp.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import math
import re
import sys
from fractions import Fraction

import numpy as np

from . import __version__, calabi, fibration as fib, glue, mirror
from . import semiflat as sfm, slag
from .errors import NumericalError, ValidationError

_RATIONAL = re.compile(r"^[+-]?\d+(/\d+)?$")
# a component is a run without signs, except the sign of an exponent (1e-3)
_PART = r"(?:[^+-]|(?<=[eE])[+-])"
_COMPLEX = re.compile(rf"^(?:(?P<re>[+-]?{_PART}+)(?<![eE])(?=[+-]))?"
                      rf"(?P<sign>[+-]?)(?P<im>{_PART}*)i$")


def parse_complex(text: str) -> tuple[complex, tuple[Fraction, Fraction] | None]:
    """Parse `a+bi` or `bi` with decimal, exponent (`1e-1`) or rational
    (`p/q`) components.

    Returns (value, exact) where exact carries Fractions when both parts
    are written as integers or ratios (exact rational mode); a missing
    real part is the integer 0.  A part too large for a float is rejected.
    """
    m = _COMPLEX.match(text.strip().replace(" ", ""))
    if not m:
        raise ValidationError(f"cannot parse complex literal {text!r}; use a+bi")
    re_s = m.group("re") or "0"
    im_s = m.group("im") or "1"
    if m.group("sign") == "-":
        im_s = "-" + im_s
    try:
        val = complex(float(Fraction(re_s)), float(Fraction(im_s)))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValidationError(f"cannot parse complex literal {text!r}: {exc}")
    exact = None
    if _RATIONAL.match(re_s) and _RATIONAL.match(im_s):
        exact = (Fraction(re_s), Fraction(im_s))
    return val, exact


def parse_rational(text: str) -> float:
    """Parse a real flag, a decimal, exponent or `p/q` literal, as a finite
    float."""
    text = text.strip()
    try:
        val = float(Fraction(text)) if _RATIONAL.match(text) else float(text)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValidationError(f"cannot parse real literal {text!r}: {exc}")
    if not math.isfinite(val):
        raise ValidationError(f"real literal {text!r} is not finite")
    return val


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _check(name: str, measured, tolerance, passed: bool) -> dict:
    return {"name": name, "passed": bool(passed),
            "measured": measured, "tolerance": tolerance}


def _tol_check(name: str, measured: float, tolerance: float) -> dict:
    return _check(name, float(measured), float(tolerance),
                  abs(measured) <= tolerance)


def _params_from(args, alpha: float | None = None) -> sfm.ModelParams:
    """Model parameters from the flags; alpha defaults to --alpha, else 1."""
    kappa = {0: 1.0, 1: args.kappa1} if getattr(args, "kappa1", 0.0) else {}
    if alpha is None:
        alpha = getattr(args, "alpha", 1.0)
    return sfm.ModelParams(k=args.k, eps=args.eps, b0=parse_rational(args.b0),
                           alpha=alpha, kappa=kappa)


def _count(text: str) -> int:
    """A sample count: an integer of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _cycle_from(text: str) -> fib.CycleSpec:
    if text.lower() == "fiber":
        return fib.FIBER
    try:
        m1, m2 = (int(v) for v in text.split(","))
    except ValueError:
        raise ValidationError("cycle must be 'fiber' or 'm1,m2'")
    return fib.CycleSpec(m1=m1, m2=m2)


# ---------------------------------------------------------------------------
# command handlers: each returns (results, checks, curve | None)


def _cmd_semiflat_eval(args):
    p = _params_from(args)
    q = fib.from_ell(complex(args.x1, args.x2), args.ell, args.theta)
    form = sfm.sf_form_chart(p, q)
    g = sfm.riemannian_metric_chart(p, q)
    # g is the real form of its J-invariant 2x2 block, so each of the block's
    # eigenvalues m -+ r comes twice; the block has det (alpha c)(alpha d),
    # which cancels nothing
    e01, cg_i, cg_r, c, d = sfm._form_entries(p, q[0], q[1], q[3], np.exp)
    b = np.hypot(cg_r, cg_i)
    low = float(sfm._smallest_eigenvalue(c, e01, b, c * d))
    high = float(0.5 * (c + e01) + np.hypot(0.5 * (c - e01), b))
    _, rel = sfm.ma_residual(p, q)
    results = {"form": form.tolist(), "metric": g.tolist(),
               "metric_eigenvalues": [low, low, high, high]}
    checks = [_tol_check("ma_residual_rel", rel, sfm.MA_TOL),
              _check("metric_positive", low, 0.0, low > 0)]
    return results, checks, None


def _cmd_semiflat_residual(args):
    p = _params_from(args)
    # row i holds the draws of sample i in the order ell, x1, x2, theta, each
    # scaled as rng.uniform(lo, hi) scales, lo + (hi - lo) * u
    u = np.random.default_rng(20260826).random((args.grid ** 2, 4))
    lo, hi = np.array([0.5, -1.0, -1.0, 0.0]), np.array([50.0, 1.0, 1.0, 2.0 * math.pi])
    ell, x1, x2, theta = (lo + (hi - lo) * u).T
    rels = sfm.ma_residual(p, np.stack((ell, theta, x1, x2), axis=-1))[1]
    # np.max carries a NaN residual through; the builtin max drops it
    worst = float(np.max(rels))
    results = {"max_rel_residual": worst, "samples": args.grid ** 2}
    return results, [_tol_check("monge_ampere_rel", worst, sfm.MA_TOL)], None


def _cmd_semiflat_pair(args):
    p = _params_from(args)
    c = _cycle_from(args.cycle)
    numeric = sfm.pair_cycle(p, c, n=args.grid)
    closed = sfm.pair_closed_form(p, c)
    err = abs(numeric - closed) / max(abs(closed), 1.0)
    results = {"pairing": numeric, "closed_form": closed, "cycle": args.cycle}
    return results, [_tol_check("pairing_rel_error", err, 1e-8)], None


def _exponent_checks(name: str, fit, centre: float, scaled) -> list[dict]:
    """`<name>_exponent`: the fitted power within 0.15 of centre; and unless
    scaled (the samples over their kappa = 1 closed form) is None,
    `<name>_scale`: scaled within 1e-12 of 1."""
    lo, hi = centre - 0.15, centre + 0.15
    checks = [_check(f"{name}_exponent", fit.exponent, f"[{lo:.5g},{hi:.5g}]",
                     lo <= fit.exponent <= hi)]
    if scaled is not None:
        checks.append(_tol_check(f"{name}_scale", np.max(np.abs(scaled - 1.0)), 1e-12))
    return checks


def _cmd_semiflat_classify(args):
    """The section decides the variant, and the checks say whether the
    samples agree with it.  The power_decay window is the curvature and pi-decay
    half-width 0.15 about -4/3: the 243 power-decay argv the benchmark can
    draw measure -1.4064 to -1.3333, at least 0.077 inside."""
    p = _params_from(args)
    h: dict = {0: complex(parse_complex(args.h0)[0])} if args.h0 else {0: 1.0}
    if args.pole:
        h[-1] = 0.5
    if args.h1:
        h[1] = complex(parse_complex(args.h1)[0])
    s = fib.SectionData(h=h, b=parse_rational(args.section_b))
    variant, r, vals, fit = sfm.classify_translation(p, s)
    results = {"variant": variant}
    if fit is not None:
        results["fit"] = {"model": fit.model, "exponent": fit.exponent,
                          "r_squared": fit.r_squared}
        checks = [_check("fit_r_squared", fit.r_squared, 0.99, fit.r_squared >= 0.99)]
        if variant == sfm.POWER_DECAY:
            checks += _exponent_checks("power_decay", fit, -4.0 / 3.0, None)
        else:
            checks.append(_check("stretched_exponent", fit.exponent, 0.0, fit.exponent < 0))
    elif variant == sfm.NOT_UNIFORM:
        growth = float(vals[-1]) / float(vals[0])
        checks = [_check("pole_growth", growth, 2.0, growth > 2.0)]
    else:
        top = results["bound"] = float(np.max(vals))
        if variant == sfm.BOUNDED_DIFFERENCE:
            ratio = top / float(np.min(vals))
            checks = [_check("bounded_ratio", ratio, "<=50, max>=1e-14",
                             ratio <= 50.0 and top >= 1e-14)]
        else:
            checks = [_tol_check("isometry_defect", top, 1e-14)]
    return results, checks, (r, vals)


def _cmd_semiflat_curvature(args):
    p = _params_from(args)
    r, vals, fit = sfm.curvature_decay(p)
    results = {"exponent": fit.exponent, "r_squared": fit.r_squared,
               "samples": int(fit.n_samples)}
    scaled = vals * r * r / sfm.RM_R2 if p.kappa_is_one() else None
    return results, _exponent_checks("curvature", fit, -2.0, scaled), (r, vals)


def _cmd_slag_check(args):
    p = _params_from(args)
    mf = slag.ModelFiber(p, _cycle_from(args.cycle), args.ell)
    sup_omega, sup_phase = slag.check_special(mf)
    ff = slag.second_fundamental_form(mf)
    results = {"sup_omega_restriction": sup_omega,
               "sup_phase_defect": sup_phase,
               "second_ff_norm": ff.pi_norm,
               "mean_curvature": ff.h_norm,
               "gauss_residual": ff.gauss_residual}
    checks = [_tol_check("lagrangian", sup_omega, 1e-10),
              _tol_check("gauss_equation", ff.gauss_residual, 1e-6)]
    if p.kappa_is_one():
        checks.append(_tol_check("mean_curvature", ff.h_norm, 1e-8))
    return results, checks, None


def _cmd_slag_geometry(args):
    p = _params_from(args)
    mf = slag.ModelFiber(p, _cycle_from(args.cycle), args.ell)
    geom = slag.fiber_geometry(mf)
    num = slag.lambda1_rayleigh(geom.a_coef, geom.b_coef)
    rel = abs(num - geom.lambda1) / geom.lambda1
    results = {"lambda1": geom.lambda1, "lambda1_numeric": num,
               "volume": geom.volume, "diameter": geom.diameter,
               "noncollapse_scale": geom.noncollapse_scale}
    return results, [_check("lambda1_rel_error", rel, 0.02, rel <= 0.02)], None


def _cmd_slag_pi_decay(args):
    p = _params_from(args)
    r, vals, fit = slag.pi_decay(p, _cycle_from(args.cycle))
    results = {"exponent": fit.exponent, "r_squared": fit.r_squared}
    scaled = vals * r / slag.II_R if p.kappa_is_one() else None
    return results, _exponent_checks("pi", fit, -1.0, scaled), (r, vals)


def _cmd_hkrot(args):
    tau, tau_exact = parse_complex(args.tau)
    model = calabi.CalabiModel(k=args.k, tau=tau, tau_exact=tau_exact)
    rot = calabi.rotate(model)
    n = args.verify_grid
    residuals = []
    # Python floats: the per-point arithmetic stays off numpy scalars
    for ell in np.linspace(1.0, 3.0, n).tolist():
        for xi1 in np.linspace(0.0, 0.6, n).tolist():
            for psi in (0.0, 1.0, 2.5):
                residuals.append(calabi.verify_rotation(model, (ell, psi, xi1, 0.2)))
    defect = calabi.lattice_defects(model, (1.7, 0.4, 0.2, 0.3))
    # np.max carries a NaN through; the builtin max drops it
    worst = float(np.max(residuals))
    worst_defect = float(np.max(list(defect.values())))
    if not (math.isfinite(worst) and math.isfinite(worst_defect)):
        raise NumericalError("non-finite rotation residual or lattice defect")
    results = {"alpha": rot.alpha, "eps": rot.eps, "b0": rot.b0,
               "sf_class": rot.sf_class, "exact": rot.exact,
               "winding": list(rot.winding) if rot.winding else None,
               "max_rotation_residual": worst,
               "lattice_defects": defect}
    checks = [_tol_check("rotation_residual", worst, 1e-8),
              _tol_check("lattice_defect", worst_defect, 1e-10)]
    return results, checks, None


def _glue_config(args) -> glue.GlueConfig:
    # --alpha of glue positivity is the glued scale, not the reference's
    p = _params_from(args, alpha=1.0)
    return glue.GlueConfig(params=p, r=args.r, s=args.s,
                           rho_min=args.rho_min, rho_max=args.rho_max,
                           v0c=args.v0c, vomc=args.vomc)


def _cmd_glue_potential(args):
    p = _params_from(args)
    # fourth-order stencils keep roundoff below the 1e-8 comparison
    h = 1e-3 * args.rho
    u, um2, um1, up1, up2 = glue.potential_u(
        p, args.rho + h * np.array([0.0, -2.0, -1.0, 1.0, 2.0])).tolist()
    upp = (-up2 + 16.0 * up1 - 30.0 * u + 16.0 * um1 - um2) / (12.0 * h ** 2)
    up = (-up2 + 8.0 * up1 - 8.0 * um1 + um2) / (12.0 * h)
    fd = 0.25 * (upp + up / args.rho)
    closed = glue.u_zz(p, np.array([args.rho])).item()
    results = {"u": u, "u_zz": closed, "u_zz_fd": fd}
    err = abs(fd - closed) / abs(closed)
    return results, [_tol_check("u_zz_fd_rel", err, 1e-8)], None


def _cmd_glue_positivity(args):
    cfg = _glue_config(args)
    t_req = glue.required_t(cfg, args.alpha, 0.0)
    t = args.t if args.t is not None else 1.2 * t_req + 1.0
    margin = glue.positivity_scan(cfg, args.alpha, t)
    results = {"margin": margin, "t": t, "required_t": t_req}
    return results, [_check("positivity_margin", margin, 0.0, margin > 0)], None


def _cmd_glue_solve_alpha(args):
    cfg = _glue_config(args)
    sol = glue.solve_alpha(cfg, t_prime=args.tprime)
    fine = glue.solve_alpha(cfg, t_prime=args.tprime, n=128)
    drift = abs(sol.alpha_star - fine.alpha_star) / sol.alpha_star
    results = {"alpha_star": sol.alpha_star, "t_at_root": sol.t_at_root,
               "bracket": list(sol.bracket), "bracket_values": list(sol.values),
               "refined_alpha_star": fine.alpha_star}
    checks = [_check("sign_change", f"{sol.values[0]:+.3e}/{sol.values[1]:+.3e}",
                     None, sol.values[0] > 0 > sol.values[1]),
              _tol_check("refinement_drift", drift, 1e-6)]
    return results, checks, None


def _cmd_mirror(args):
    tau, tau_exact = parse_complex(args.tau)
    data = mirror.mirror_map(args.k, tau, args.m, tau_exact=tau_exact)
    results = {"alpha_q": data.alpha_q, "v_check": data.v_check,
               "v_mirror": data.v_mirror, "product": data.product,
               "sf_class": data.sf_class, "exact": data.exact}
    if data.product_exact is not None:
        results["product_exact"] = str(data.product_exact)
        checks = [_check("volume_product", str(data.product_exact), "1",
                         data.product_exact == 1)]
    else:
        checks = [_tol_check("volume_product_minus_one",
                             data.product - 1.0, 1e-12)]
    return results, checks, None


def _cmd_dims(args):
    dims = sfm.moduli_dims(args.k)
    results = {"semiflat_family": dims[0], "h2_de_rham": dims[1],
               "hyperkahler_family": dims[2]}
    ok = dims == (10 - args.k, 11 - args.k, 10 - args.k)
    return results, [_check("dims", list(dims), None, ok)], None


# ---------------------------------------------------------------------------
# argument grammar: each command's flags, declared once as (spelling, type,
# default[, help]) in help order; the default _REQUIRED makes a flag required
# and the type bool makes it store_true.  Only a str flag has a str default,
# so every default is its own converted value.

_REQUIRED = object()
_COMMON = (("--csv", str, None, "write the decay curve as CSV (columns r,value)"),
           ("--no-timestamp", bool, False))
_K = (("--k", int, _REQUIRED),)
_TAU = _K + (("--tau", str, _REQUIRED),)
_PARAMS = _K + (("--eps", float, 1.0), ("--b0", str, "0"), ("--kappa1", float, 0.0))
_ALPHA = _PARAMS + (("--alpha", float, 1.0),)
_GLUE = _PARAMS + (("--r", float, _REQUIRED), ("--s", float, _REQUIRED),
                   ("--rho-min", float, 1e-4), ("--rho-max", float, 0.9),
                   ("--v0c", float, _REQUIRED), ("--vomc", float, _REQUIRED))
_SLAG = _PARAMS + (("--cycle", str, "1,0"),)

# the words of each command, in help order, to its handler and flags
_LEAVES = {
    ("semiflat", "eval"): (_cmd_semiflat_eval, _ALPHA + (
        ("--ell", float, _REQUIRED), ("--theta", float, 0.0),
        ("--x1", float, 0.0), ("--x2", float, 0.0))),
    ("semiflat", "residual"): (_cmd_semiflat_residual, _ALPHA + (("--grid", _count, 32),)),
    ("semiflat", "pair"): (_cmd_semiflat_pair, _ALPHA + (
        ("--cycle", str, "fiber"), ("--grid", _count, 64))),
    ("semiflat", "classify-translation"): (_cmd_semiflat_classify, _PARAMS + (
        ("--pole", bool, False), ("--section-b", str, "0"),
        ("--h0", str, None), ("--h1", str, None))),
    ("semiflat", "curvature"): (_cmd_semiflat_curvature, _PARAMS),
    ("slag", "check"): (_cmd_slag_check, _SLAG + (("--ell", float, 10.0),)),
    ("slag", "geometry"): (_cmd_slag_geometry, _SLAG + (("--ell", float, 10.0),)),
    ("slag", "pi-decay"): (_cmd_slag_pi_decay, _SLAG),
    ("hkrot",): (_cmd_hkrot, _TAU + (("--verify-grid", _count, 5),)),
    ("glue", "potential"): (_cmd_glue_potential, _PARAMS + (("--rho", float, 0.3),)),
    ("glue", "positivity"): (_cmd_glue_positivity, _GLUE + (
        ("--alpha", float, 2.0), ("--t", float, None))),
    ("glue", "solve-alpha"): (_cmd_glue_solve_alpha, _GLUE + (("--tprime", float, 1.0),)),
    ("mirror",): (_cmd_mirror, _TAU + (("--m", int, 1),)),
    ("dims",): (_cmd_dims, _K),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process from _LEAVES: parse_args returns a
    fresh Namespace and _Parser.error raises, so no state carries between runs.

    `parser.leaves` maps the words of each command, ("semiflat", "eval") or
    ("hkrot",), to its leaf parser, whose defaults hold the command and
    subcommand the full parser sets, and () to the full parser itself.  Each
    leaf's `flags` is its _FlagTable, built from the same flags."""
    parser = _Parser(prog="syzlab", description=__doc__)
    parser.leaves = {(): parser}
    groups = {(): parser.add_subparsers(dest="command", required=True)}
    for words, (handler, flags) in _LEAVES.items():
        if words[:-1] not in groups:
            groups[words[:-1]] = groups[()].add_parser(words[0]).add_subparsers(
                dest="subcommand", required=True)
        sp = groups[words[:-1]].add_parser(words[-1])
        fixed = dict(zip(("command", "subcommand"), words), handler=handler)
        sp.set_defaults(**fixed)
        for spelling, kind, default, *doc in _COMMON + flags:
            required = default is _REQUIRED
            how = {"action": "store_true"} if kind is bool else {"type": kind, "required": required}
            sp.add_argument(spelling, default=None if required else default,
                            help=doc[0] if doc else None, **how)
        sp.flags = _FlagTable(_COMMON + flags, fixed)
        parser.leaves[words] = sp
    return parser


class _FlagTable:
    """A leaf's flags by their exact spellings, with its Namespace defaults
    and required flags.  read() takes argv only when every token is an exact
    spelling, or `--flag=value`, of a flag not seen before, each value
    converts through the flag's type, and a value in its own token does not
    start with `-`.  Anything else (an abbreviation, a repeat, a missing
    value, a failed conversion, a missing required flag, -h, --) returns
    None, and the leaf's parse_args reads that argv: argparse stays the only
    author of help and error text."""

    def __init__(self, flags: tuple, fixed: dict):
        self.spellings, self.defaults, self.required = {}, dict(fixed), set()
        for spelling, kind, default, *_ in flags:
            # argparse's dest: --rho-min is rho_min
            dest = spelling[2:].replace("-", "_")
            self.spellings[spelling] = dest, kind
            if default is _REQUIRED:
                self.required.add(spelling)
            else:
                self.defaults[dest] = default
        self.value_flags = {spelling for spelling, (_, kind) in self.spellings.items()
                            if kind is not bool}

    def read(self, argv: list[str]) -> argparse.Namespace | None:
        values, seen = dict(self.defaults), set()
        tokens = iter(argv)
        for token in tokens:
            flag, eq, text = token.partition("=")
            entry = self.spellings.get(flag)
            if entry is None or flag in seen:
                return None
            seen.add(flag)
            dest, kind = entry
            if kind is bool:
                if eq:
                    return None
                values[dest] = True
                continue
            if not eq:
                text = next(tokens, "-")
                if text.startswith("-"):
                    return None
            try:
                values[dest] = kind(text)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if not self.required <= seen:
            return None
        return argparse.Namespace(**values)


def _echo_inputs(args) -> dict:
    skip = {"handler", "csv", "no_timestamp"}
    out = {}
    for key, val in sorted(vars(args).items()):
        if key in skip:
            continue
        out[key] = val if isinstance(val, (int, float, str, bool, type(None))) else str(val)
    return out


def _write_csv(path: str, curve) -> None:
    r, vals = curve
    try:
        with open(path, "w") as fh:
            fh.write("r,value\n")
            for ri, vi in zip(np.asarray(r), np.asarray(vals)):
                fh.write(f"{float(ri)!r},{float(vi)!r}\n")
    except OSError as exc:
        raise ValidationError(f"cannot write --csv {path!r}: {exc.strerror or exc}") from None


# the commands' string flags (not --csv), whose values argparse may take for flags
_VALUE_FLAGS = {spelling for _, flags in _LEAVES.values()
                for spelling, kind, _ in flags if kind is str}


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _join_negative_values(argv: list[str], value_flags: set[str]) -> list[str]:
    """Fold `--tau -1/2+2i` into `--tau=-1/2+2i` so argparse accepts it, and
    `--x1 -1e-3` into `--x1=-1e-3` where --x1 is one of value_flags, the
    flags that take a value: argparse takes `-0.001` for a value but not
    `-1e-3`."""
    out = []
    skip = False
    for i, a in enumerate(argv):
        if skip:
            skip = False
            continue
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if nxt.startswith("-") and (
                a in _VALUE_FLAGS or (a in value_flags and _is_float(nxt))):
            out.append(a + "=" + nxt)
            skip = True
        else:
            out.append(a)
    return out


def _render(args, results: dict, checks: list[dict]) -> str:
    """The report as strict JSON; a non-finite value is a NumericalError."""
    command = args.command
    if getattr(args, "subcommand", None):
        command += " " + args.subcommand
    report = {"command": command, "inputs": _echo_inputs(args),
              "results": results, "checks": checks, "version": __version__}
    if not args.no_timestamp:
        report["timestamp"] = datetime.datetime.now(
            datetime.timezone.utc).isoformat()
    try:
        return _json(report, "\n")
    except ValueError as exc:
        raise NumericalError(f"report holds a non-finite value ({exc})") from None


_STRING = json.encoder.encode_basestring_ascii


def _json(value, pad: str) -> str:
    """value as json.dumps(value, indent=2, sort_keys=True, allow_nan=False)
    writes it, byte for byte, without the pure-Python encoder that json runs
    for an indent; pad is the newline and indent of value's line."""
    if isinstance(value, str):
        return _STRING(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    # None, True and False before int: bool is an int
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        ends, items = "[]", [_json(v, inner) for v in value]
    elif isinstance(value, dict):
        ends, items = "{}", [f"{_STRING(k)}: {_json(v, inner)}" for k, v in sorted(value.items())]
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return ends
    return ends[0] + inner + ("," + inner).join(items) + pad + ends[1]


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """argv read through the flag table of the leaf its first words name, or
    parsed by that leaf's parser where the table declines, else (no words,
    `semiflat` alone, `slag bogus`, `--help`) by the full parser."""
    words = next(w for w in (tuple(argv[:2]), tuple(argv[:1]), ()) if w in parser.leaves)
    leaf = parser.leaves[words]
    if not words:
        return leaf.parse_args(_join_negative_values(argv, set()))
    rest = _join_negative_values(argv[len(words):], leaf.flags.value_flags)
    return leaf.flags.read(rest) or leaf.parse_args(rest)


def run(argv: list[str] | None = None) -> int:
    """Run one command and print its report; returns the exit code.

    argv is read through its command's flag table, or parsed by the
    command's leaf parser where the table declines; either gives the full
    parser's Namespace without the two outer levels.  The full parser is
    kept for the rest, argv whose first words name no command."""
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(parser, argv)
        # numpy overflow, invalid and 0-division fail; no NaN reaches a check
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            results, checks, curve = args.handler(args)
        if args.csv is not None and curve is None:
            raise ValidationError("this command produces no decay curve")
        text = _render(args, results, checks)
        if args.csv is not None:
            _write_csv(args.csv, curve)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (ArithmeticError, np.linalg.LinAlgError, MemoryError) as exc:
        # ArithmeticError covers NumericalError, overflow, zero division
        # and numpy's FloatingPointError; a sample array too large to
        # allocate (semiflat residual --grid 100000) raises MemoryError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text + "\n")
    return 0 if all(c["passed"] for c in checks) else 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
