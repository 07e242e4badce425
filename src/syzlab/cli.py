"""Command-line front end: JSON verification reports and CSV decay curves.

Exit codes: 0 all checks pass, 1 validation error, 2 numerical failure,
3 one or more checks failed.  Reports are deterministic for fixed flags;
the timestamp is suppressed with --no-timestamp.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import operator
import re
import sys

from . import __version__, moduli
from .errors import MA_TOL, NumericalError, ValidationError

_RATIONAL = re.compile(r"^[+-]?\d+(/\d+)?$")
# a component is a run without signs, except the sign of an exponent (1e-3)
_PART = r"(?:[^+-]|(?<=[eE])[+-])"
_COMPLEX = re.compile(rf"^(?:(?P<re>[+-]?{_PART}+)(?<![eE])(?=[+-]))?"
                      rf"(?P<sign>[+-]?)(?P<im>{_PART}*)i$")
# tau = a/b + (c/d)i with D-digit integers has -Re tau/|tau|^2 = -a b d^2/(a^2 d^2 + b^2 c^2),
# at most 4D + 1 digits in hkrot's winding: D = 1,000 keeps it in the 4,300-digit str(int) limit
_DIGITS = 1000


class _LiteralError(ValidationError, argparse.ArgumentTypeError):
    """A literal _real rejects; from a flag's type, argparse words it `argument --flag: ...`."""


def _real(text: str, kind: str, literal: str) -> tuple[float, tuple[int, int] | None]:
    """(finite float, (p, q)) of a real literal: (p, q) are the integers of `p/q` text, q = 1
    for integer text, else None, and float() reads every other spelling unexpanded.  An error
    names the literal as `kind 'literal'`, literal the whole text that text is part of."""
    rational = _RATIONAL.match(text)
    if rational and len(text) > _DIGITS and max(map(len, re.findall(r"\d+", text))) > _DIGITS:
        raise _LiteralError(f"{kind} {literal!r} has an integer of more than {_DIGITS} digits")
    ratio = None
    try:
        if rational:
            p, _, q = text.partition("/")
            ratio = int(p), int(q or 1)
            if not ratio[1]:
                raise ZeroDivisionError(f"Fraction({ratio[0]}, 0)")  # as Fraction words it
            val = ratio[0] / ratio[1]
        else:
            val = float(text)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise _LiteralError(f"cannot parse {kind} {literal!r}: {exc}")
    if not math.isfinite(val):
        raise _LiteralError(f"{kind} {literal!r} is not finite; a real must be finite")
    return val, ratio


def parse_complex(text: str) -> tuple[complex, tuple | None]:
    """Parse `a+bi` or `bi`, each part read by _real, as (value, exact): exact holds both
    parts as Fractions (exact rational mode) when both are integers or `p/q`, else None;
    a decimal or exponent (`1e-1`) part is a float, never expanded, and a missing real
    part is the integer 0."""
    m = _COMPLEX.match(text.strip().replace(" ", ""))
    if not m:
        raise ValidationError(f"cannot parse complex literal {text!r}; use a+bi")
    im_s = m.group("sign") + (m.group("im") or "1")
    (re_f, re_x), (im_f, im_x) = (_real(part, "complex literal", text)
                                  for part in (m.group("re") or "0", im_s))
    from fractions import Fraction  # not at import: a handler has loaded it with the models
    exact = None if re_x is None or im_x is None else (Fraction(*re_x), Fraction(*im_x))
    return complex(re_f, im_f), exact


def parse_rational(text: str) -> float:
    """Parse a real flag, an integer, `p/q`, decimal or exponent literal, as a finite float
    by _real's rule: every spelling but integers and `p/q` is read by float()."""
    text = text.strip()
    return _real(text, "real literal", text)[0]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


def _window(centre: float) -> tuple[str, object]:
    lo, hi = centre - 0.15, centre + 0.15
    return f"[{lo:.5g},{hi:.5g}]", lambda measured, _: lo <= measured <= hi


# Every check, by command: its name to the tolerance its report prints and its pass
# rule(measured, tolerance, *context), context from the handler.  A bare float is the
# tolerance of |measured| <= tolerance, _window(c) is c +- 0.15; no rule passes a NaN.
_CHECKS = {
    "ma_residual_rel": MA_TOL, "metric_positive": (0.0, operator.gt),
    "monge_ampere_rel": MA_TOL, "pairing_rel_error": 1e-8,
    "fit_r_squared": (0.99, operator.ge), "stretched_exponent": (0.0, operator.lt),
    # the benchmark's 243 power-decay argv measure -1.4064 to -1.3333, 0.077 or more inside
    "power_decay_exponent": _window(-4.0 / 3.0), "pole_growth": (2.0, operator.gt),
    "bounded_ratio": ("<=50, max/(eps/k)>=1e-14",
                      lambda ratio, _, top: ratio <= 50.0 and top >= 1e-14),
    "isometry_defect": 1e-14, "curvature_exponent": _window(-2.0), "curvature_scale": 1e-12,
    "lagrangian": 1e-10, "gauss_equation": 1e-6, "mean_curvature": 1e-8,
    "lambda1_rel_error": 0.02, "pi_exponent": _window(-1.0), "pi_scale": 1e-12,
    "rotation_residual": 1e-8, "lattice_defect": 1e-10, "u_zz_fd_rel": 1e-8,
    "positivity_margin": (0.0, operator.gt), "refinement_drift": 1e-6,
    # measured is the text of the context, the bracket values f(lo) and f(hi)
    "sign_change": (None, lambda _, __, f_lo, f_hi: f_lo > 0 > f_hi),
    "volume_product": ("1", operator.eq), "volume_product_minus_one": 1e-12,
    "dims": (None, lambda dims, _, k: dims == [10 - k, 11 - k, 10 - k])}


def _check(name: str, measured, *context) -> dict:
    """The report entry of check `name` of _CHECKS on measured and context."""
    row = _CHECKS[name]
    tolerance, rule = row if isinstance(row, tuple) else (row, None)
    passed = abs(measured) <= tolerance if rule is None else rule(measured, tolerance, *context)
    return {"name": name, "passed": bool(passed), "measured": measured, "tolerance": tolerance}


def _params_from(args, alpha: float | None = None) -> sfm.ModelParams:
    """Model parameters from the flags; alpha defaults to --alpha, else 1."""
    kappa = {0: 1.0, 1: args.kappa1} if args.kappa1 else {}
    if alpha is None:
        alpha = getattr(args, "alpha", 1.0)
    return sfm.ModelParams(k=args.k, eps=args.eps, b0=args.b0, alpha=alpha, kappa=kappa)


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
    # which cancels nothing, and m >= 0, so m - r is read as det / (m + r)
    e01, cg_i, cg_r, c, d = sfm._form_entries(p, q[0], q[1], q[3], np.exp)
    b, det = np.hypot(cg_r, cg_i), c * d
    m_plus_r = 0.5 * (c + e01) + np.hypot(0.5 * (c - e01), b)
    low, high = float(det / m_plus_r), float(m_plus_r)
    _, rel = sfm.ma_residual(p, q)
    results = {"form": form.tolist(), "metric": g.tolist(),
               "metric_eigenvalues": [low, low, high, high]}
    checks = [_check("ma_residual_rel", float(rel)), _check("metric_positive", low)]
    return results, checks, None


def _cmd_semiflat_residual(args):
    p = _params_from(args)
    # sample i = 1..n is the R4 point frac(i r), r_j = 1/phi^j with phi the real
    # root of x^5 = x + 1 (Roberts 2018), in the order ell, x1, x2, theta, each
    # scaled as lo + (hi - lo) * u: an even cover of the box, with no seed
    n = 1024
    u = np.outer(np.arange(1.0, n + 1.0), 1.0 / 1.1673039782614187 ** np.arange(1.0, 5.0))
    u -= np.floor(u)
    lo, hi = np.array([0.5, -1.0, -1.0, 0.0]), np.array([50.0, 1.0, 1.0, 2.0 * math.pi])
    ell, x1, x2, theta = (lo + (hi - lo) * u).T
    rels = sfm.ma_residual(p, np.stack((ell, theta, x1, x2), axis=-1))[1]
    # np.max carries a NaN residual through; the builtin max drops it
    worst = float(np.max(rels))
    results = {"max_rel_residual": worst, "samples": n}
    return results, [_check("monge_ampere_rel", worst)], None


def _cmd_semiflat_pair(args):
    p = _params_from(args)
    c = _cycle_from(args.cycle)
    numeric = sfm.pair_cycle(p, c)
    closed = sfm.pair_closed_form(p, c)
    err = abs(numeric - closed) / max(abs(closed), 1.0)
    results = {"pairing": numeric, "closed_form": closed, "cycle": args.cycle}
    return results, [_check("pairing_rel_error", err)], None


def _cmd_semiflat_classify(args):
    """The section decides the variant; the checks say whether the samples agree."""
    p = _params_from(args)
    h: dict = {0: parse_complex(args.h0)[0]} if args.h0 else {0: 1.0}
    if args.pole:
        h[-1] = 0.5
    if args.h1:
        h[1] = parse_complex(args.h1)[0]
    s = fib.SectionData(h=h, b=args.section_b)
    variant, r, vals, fit = sfm.classify_translation(p, s)
    results = {"variant": variant}
    if fit is not None:
        results["fit"] = {"model": fit.model, "exponent": fit.exponent,
                          "r_squared": fit.r_squared}
        exponent = ("power_decay_exponent" if variant == sfm.POWER_DECAY
                    else "stretched_exponent")
        checks = [_check("fit_r_squared", fit.r_squared), _check(exponent, fit.exponent)]
    elif variant == sfm.NOT_UNIFORM:
        checks = [_check("pole_growth", float(vals[-1]) / float(vals[0]))]
    else:
        top = results["bound"] = float(np.max(vals))
        unit = top / (p.eps / p.k)  # the floors read the defect per unit eps/k
        checks = [_check("bounded_ratio", top / float(np.min(vals)), unit)
                  if variant == sfm.BOUNDED_DIFFERENCE else _check("isometry_defect", unit)]
    return results, checks, (r, vals)


def _cmd_semiflat_curvature(args):
    p = _params_from(args)
    r, vals, fit = sfm.curvature_decay(p)
    results = {"exponent": fit.exponent, "r_squared": fit.r_squared,
               "samples": int(fit.n_samples)}
    checks = [_check("curvature_exponent", fit.exponent)]
    if p.kappa_is_one():
        scale = float(np.max(np.abs(vals * r * r / sfm.RM_R2 - 1.0)))
        checks.append(_check("curvature_scale", scale))
    return results, checks, (r, vals)


def _cmd_slag_check(args):
    p = _params_from(args)
    mf = slag.ModelFiber(p, _cycle_from(args.cycle), args.ell)
    sup_omega, sup_phase = slag.check_special(mf)
    # |c g_r + c s| / (|c g_r| + |c s|), which no eps scales away; 0/0 (C_{1,0}, b0 = 0) is 0
    cg_r, cs = mf.omega_terms
    size = float((np.abs(cg_r) + np.abs(cs))[0])
    lagrangian = float(np.abs(cg_r + cs)[0]) / size if size else 0.0
    ff = slag.second_fundamental_form(mf)
    results = {"sup_omega_restriction": sup_omega,
               "sup_phase_defect": sup_phase,
               "second_ff_norm": ff.pi_norm,
               "mean_curvature": ff.h_norm,
               "gauss_residual": ff.gauss_residual}
    checks = [_check("lagrangian", lagrangian), _check("gauss_equation", ff.gauss_rel)]
    if p.kappa_is_one():
        checks.append(_check("mean_curvature", ff.h_rel))
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
    return results, [_check("lambda1_rel_error", rel)], None


def _cmd_slag_pi_decay(args):
    p = _params_from(args)
    r, vals, fit = slag.pi_decay(p, _cycle_from(args.cycle))
    results = {"exponent": fit.exponent, "r_squared": fit.r_squared}
    checks = [_check("pi_exponent", fit.exponent)]
    if p.kappa_is_one():
        scale = float(np.max(np.abs(vals * r / slag.II_R - 1.0)))
        checks.append(_check("pi_scale", scale))
    return results, checks, (r, vals)


# hkrot's 75 points (ell, psi, xi1, xi2), psi = 0 as it moves only the chart's x1, with ell
# and xi1 as np.linspace(1, 3, 5) and np.linspace(0, 0.6, 5) give them; Python floats, so
# that the per-point arithmetic stays off numpy scalars
_HKROT_POINTS = tuple((1.0 + 0.5 * i, 0.0, xi1, xi2) for i in range(5)
                      for xi1 in (0.0, 0.15, 0.3, 0.15 * 3, 0.6) for xi2 in (0.2, 0.45, 0.7))


def _cmd_hkrot(args):
    tau, tau_exact = parse_complex(args.tau)
    model = calabi.CalabiModel(k=args.k, tau=tau, tau_exact=tau_exact)
    rot = calabi.rotate(model)
    residuals = [calabi.verify_rotation(model, pt) for pt in _HKROT_POINTS]
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
    checks = [_check("rotation_residual", worst), _check("lattice_defect", worst_defect)]
    return results, checks, None


def _glue_config(args) -> glue.GlueConfig:
    # --alpha of glue positivity is the glued scale, not the reference's
    p = _params_from(args, alpha=1.0)
    return glue.GlueConfig(params=p, r=args.r, s=args.s,
                           rho_min=args.rho_min, rho_max=args.rho_max,
                           v0c=args.v0c, vomc=args.vomc)


def _cmd_glue_potential(args):
    p = _params_from(args)
    # fourth-order stencils at h = 1e-3 rho: each u_j rounds by about 2^-53 u, which upp's
    # weights (64/12 over h^2, times 1/4) carry into fd as 2^-53 u / (0.75 h^2), or
    # 2^-53 ell^2 / 1.125e-6 ~ 1e-10 ell^2 of u_zz = 1.5 u / (ell rho)^2, ell = -log rho
    h = 1e-3 * args.rho
    u, um2, um1, up1, up2 = glue.potential_u(
        p, args.rho + h * np.array([0.0, -2.0, -1.0, 1.0, 2.0])).tolist()
    upp = (-up2 + 16.0 * up1 - 30.0 * u + 16.0 * um1 - um2) / (12.0 * h ** 2)
    up = (-up2 + 8.0 * up1 - 8.0 * um1 + um2) / (12.0 * h)
    fd = 0.25 * (upp + up / args.rho)
    closed = glue.u_zz(p, np.array([args.rho])).item()
    results = {"u": u, "u_zz": closed, "u_zz_fd": fd}
    err = abs(fd - closed) / abs(closed)
    rounding = 2.0 ** -53 * abs(u) / (0.75 * h * h * abs(closed))
    if rounding >= _CHECKS["u_zz_fd_rel"]:
        raise NumericalError(f"u_zz_fd_rel cannot be resolved: the stencils' rounding, "
                             f"{rounding:.2g} of u_zz, reaches its tolerance")
    return results, [_check("u_zz_fd_rel", err)], None


def _cmd_glue_positivity(args):
    cfg = _glue_config(args)
    t_req = glue.required_t(cfg, args.alpha, 0.0)
    t = args.t if args.t is not None else 1.2 * t_req + 1.0
    margin = glue.positivity_scan(cfg, args.alpha, t)
    results = {"margin": margin, "t": t, "required_t": t_req}
    return results, [_check("positivity_margin", margin)], None


def _cmd_glue_solve_alpha(args):
    cfg = _glue_config(args)
    sol = glue.solve_alpha(cfg, t_prime=args.tprime)
    fine = glue.solve_alpha(cfg, t_prime=args.tprime, n=128)
    drift = abs(sol.alpha_star - fine.alpha_star) / sol.alpha_star
    results = {"alpha_star": sol.alpha_star, "t_at_root": sol.t_at_root,
               "bracket": list(sol.bracket), "bracket_values": list(sol.values),
               "refined_alpha_star": fine.alpha_star}
    checks = [_check("sign_change", f"{sol.values[0]:+.3e}/{sol.values[1]:+.3e}", *sol.values),
              _check("refinement_drift", drift)]
    return results, checks, None


def _cmd_mirror(args):
    tau, tau_exact = parse_complex(args.tau)
    data = mirror.mirror_map(args.k, tau, args.m, tau_exact=tau_exact)
    results = {"alpha_q": data.alpha_q, "v_check": data.v_check,
               "v_mirror": data.v_mirror, "product": data.product,
               "sf_class": data.sf_class, "exact": data.exact}
    if data.product_exact is not None:
        results["product_exact"] = str(data.product_exact)
        checks = [_check("volume_product", results["product_exact"])]
    else:
        checks = [_check("volume_product_minus_one", data.product - 1.0)]
    return results, checks, None


def _cmd_dims(args):
    dims = moduli.moduli_dims(args.k)
    results = {"semiflat_family": dims[0], "h2_de_rham": dims[1],
               "hyperkahler_family": dims[2]}
    return results, [_check("dims", list(dims), args.k)], None


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
_REAL = parse_rational  # the type of every real flag
_PARAMS = _K + (("--eps", _REAL, 1.0), ("--b0", _REAL, 0.0), ("--kappa1", _REAL, 0.0))
_ALPHA = _PARAMS + (("--alpha", _REAL, 1.0),)
_GLUE = _PARAMS + (("--r", _REAL, _REQUIRED), ("--s", _REAL, _REQUIRED),
                   ("--rho-min", _REAL, 1e-4), ("--rho-max", _REAL, 0.9),
                   ("--v0c", _REAL, _REQUIRED), ("--vomc", _REAL, _REQUIRED))
_SLAG = _PARAMS + (("--cycle", str, "1,0"),)

# the words of each command, in help order, to its handler and flags
_LEAVES = {
    ("semiflat", "eval"): (_cmd_semiflat_eval, _ALPHA + (
        ("--ell", _REAL, _REQUIRED), ("--theta", _REAL, 0.0),
        ("--x1", _REAL, 0.0), ("--x2", _REAL, 0.0))),
    ("semiflat", "residual"): (_cmd_semiflat_residual, _ALPHA),
    ("semiflat", "pair"): (_cmd_semiflat_pair, _ALPHA + (("--cycle", str, "fiber"),)),
    ("semiflat", "classify-translation"): (_cmd_semiflat_classify, _PARAMS + (
        ("--pole", bool, False), ("--section-b", _REAL, 0.0),
        ("--h0", str, None), ("--h1", str, None))),
    ("semiflat", "curvature"): (_cmd_semiflat_curvature, _PARAMS),
    ("slag", "check"): (_cmd_slag_check, _SLAG + (("--ell", _REAL, 10.0),)),
    ("slag", "geometry"): (_cmd_slag_geometry, _SLAG + (("--ell", _REAL, 10.0),)),
    ("slag", "pi-decay"): (_cmd_slag_pi_decay, _SLAG),
    ("hkrot",): (_cmd_hkrot, _TAU),
    ("glue", "potential"): (_cmd_glue_potential, _PARAMS + (("--rho", _REAL, 0.3),)),
    ("glue", "positivity"): (_cmd_glue_positivity, _GLUE + (
        ("--alpha", _REAL, 2.0), ("--t", _REAL, None))),
    ("glue", "solve-alpha"): (_cmd_glue_solve_alpha, _GLUE + (("--tprime", _REAL, 1.0),)),
    ("mirror",): (_cmd_mirror, _TAU + (("--m", int, 1),)),
    ("dims",): (_cmd_dims, _K),
}


# the Namespace values a command's words set: its command, subcommand and handler
_FIXED = {words: dict(zip(("command", "subcommand"), words), handler=handler)
          for words, (handler, _) in _LEAVES.items()}


@functools.cache
def _tree() -> dict:
    """The argparse parsers, built once from _LEAVES on the first argv argparse must
    read: each command's words to its leaf parser, whose defaults hold the command and
    subcommand the full parser sets, and () to the full parser."""
    parser = _Parser(prog="syzlab", description=__doc__)
    tree = {(): parser}
    groups = {(): parser.add_subparsers(dest="command", required=True)}
    for words, (_, flags) in _LEAVES.items():
        if words[:-1] not in groups:
            groups[words[:-1]] = groups[()].add_parser(words[0]).add_subparsers(
                dest="subcommand", required=True)
        sp = tree[words] = groups[words[:-1]].add_parser(words[-1])
        sp.set_defaults(**_FIXED[words])
        for spelling, kind, default, *doc in _COMMON + flags:
            required = default is _REQUIRED
            how = {"action": "store_true"} if kind is bool else {"type": kind, "required": required}
            sp.add_argument(spelling, default=None if required else default,
                            help=doc[0] if doc else None, **how)
    return tree


class _Command:
    """A command's parser, () the full one: its _FlagTable, and argparse's
    parse_args and print_usage through _tree()."""

    def __init__(self, words: tuple, flags: _FlagTable | None):
        self.words, self.flags = words, flags

    def parse_args(self, argv: list[str]) -> argparse.Namespace:
        return _tree()[self.words].parse_args(argv)

    def print_usage(self, file) -> None:
        _tree()[self.words].print_usage(file)


@functools.cache
def build_parser() -> _Command:
    """The full parser, built once per process from _LEAVES: parse_args returns a
    fresh Namespace and _Parser.error raises, so no state carries between runs.

    `parser.leaves` maps the words of each command, ("semiflat", "eval") or ("hkrot",),
    to its _Command and () to the full parser itself; no argparse parser is built here."""
    parser = _Command((), None)
    parser.leaves = {(): parser}
    for words, (_, flags) in _LEAVES.items():
        parser.leaves[words] = _Command(words, _FlagTable(_COMMON + flags, _FIXED[words]))
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
            except (TypeError, ValueError):
                return None
        if not self.required <= seen:
            return None
        return argparse.Namespace(**values)


def _echo_inputs(args) -> dict:
    return {key: val for key, val in vars(args).items()
            if key not in {"handler", "csv", "no_timestamp"}}


def _write_csv(path: str, curve) -> None:
    r, vals = curve
    try:
        with open(path, "w") as fh:
            fh.write("r,value\n")
            for ri, vi in zip(np.asarray(r), np.asarray(vals)):
                fh.write(f"{float(ri)!r},{float(vi)!r}\n")
    except OSError as exc:
        raise ValidationError(f"cannot write --csv {path!r}: {exc.strerror or exc}") from None


# the commands' flags that take a value; --csv, a path, is not one
_FOLDED = {spelling for _, flags in _LEAVES.values() for spelling, kind, _ in flags
           if kind is not bool}


def _join_negative_values(argv: list[str]) -> list[str]:
    """Fold `--x1 -1/4` into `--x1=-1/4` where --x1 is one of _FOLDED, so
    that the flag's type reads the value: argparse takes `-0.001` for a
    value but `-1e-3`, `-1/4` and `-1/2+2i` for flags."""
    out = []
    for a in argv:
        if out and out[-1] in _FOLDED and a.startswith("-"):
            out[-1] += "=" + a
        else:
            out.append(a)
    return out


def _render(args, results: dict, checks: list[dict]) -> str:
    """The report as strict JSON, keys in sorted order; a non-finite value is a NumericalError."""
    command = args.command
    if getattr(args, "subcommand", None):
        command += " " + args.subcommand
    stamp = ""
    if not args.no_timestamp:
        import datetime  # not at import: a --no-timestamp report never loads it
        stamp = f'\n  "timestamp": "{datetime.datetime.now(datetime.timezone.utc).isoformat()}",'
    try:
        return (f'{{\n  "checks": {_json(checks, _PAD)},\n  "command": {_STRING(command)},'
                f'\n  "inputs": {_json(_echo_inputs(args), _PAD)},'
                f'\n  "results": {_json(results, _PAD)},{stamp}'
                f'\n  "version": {_STRING(__version__)}\n}}')
    except ValueError as exc:
        raise NumericalError(f"report holds a non-finite value ({exc})") from None


_STRING = json.encoder.encode_basestring_ascii
_PAD = "\n  "  # the newline and indent of a top-level value's line


def _float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


# a container's items of exactly these types, written without a call to _json
_SCALARS = {float: _float, str: _STRING, int: int.__repr__,
            bool: lambda v: "true" if v else "false", type(None): lambda _: "null"}


def _json(value, pad: str) -> str:
    """value as json.dumps(value, indent=2, sort_keys=True, allow_nan=False)
    writes it, byte for byte, without the pure-Python encoder that json runs
    for an indent; pad is the newline and indent of value's line.  Every dict
    key must be a str, as in every report: a key of another type raises
    TypeError, where json.dumps would write it as a string.  Loops, not
    comprehensions: before CPython 3.12 each comprehension is a function call."""
    inner = pad + "  "
    if isinstance(value, dict):
        items = []
        for key in sorted(value):
            v = value[key]
            f = _SCALARS.get(type(v))
            items.append(f"{_STRING(key)}: {f(v) if f else _json(v, inner)}")
        return f"{{{inner}{f',{inner}'.join(items)}{pad}}}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = []
        for v in value:
            f = _SCALARS.get(type(v))
            items.append(f(v) if f else _json(v, inner))
        return f"[{inner}{f',{inner}'.join(items)}{pad}]" if items else "[]"
    if f := _SCALARS.get(type(value)):
        return f(value)
    # a subclass is written as its base: np.float64 as a float (bool, an int, has none)
    for base in (float, str, int):
        if isinstance(value, base):
            return _SCALARS[base](value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """argv read through the flag table of the leaf its first words name, or
    parsed by that leaf's parser where the table declines, else (no words,
    `semiflat` alone, `slag bogus`, `--help`) by the full parser."""
    words = next(w for w in (tuple(argv[:2]), tuple(argv[:1]), ()) if w in parser.leaves)
    leaf = parser.leaves[words]
    rest = _join_negative_values(argv[len(words):])
    return (words and leaf.flags.read(rest)) or leaf.parse_args(rest)


# what a handler raises on a numerical failure: ArithmeticError covers NumericalError,
# overflow, zero division and numpy's FloatingPointError, and an array too large to allocate
# raises MemoryError; _load_models adds numpy's LinAlgError
_NUMERICAL = (ArithmeticError, MemoryError)


@functools.cache
def _load_models() -> None:
    """Bind numpy and the model modules that the handlers read, once, before the first
    report that needs them: importing the CLI, --help, argv errors and dims load none."""
    global np, calabi, fib, glue, mirror, sfm, slag, _NUMERICAL
    import numpy as np
    from . import calabi, fibration as fib, glue, mirror, semiflat as sfm, slag
    _NUMERICAL += (np.linalg.LinAlgError,)


def _errstate(handler):
    """The context handler runs in: numpy overflow, invalid and 0-division raise, so no NaN
    reaches a check.  dims is integer arithmetic and runs without numpy."""
    if handler is _cmd_dims:
        return contextlib.nullcontext()
    _load_models()
    return np.errstate(over="raise", invalid="raise", divide="raise")


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
        with _errstate(args.handler):
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
    except _NUMERICAL as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text + "\n")
    return 0 if all(c["passed"] for c in checks) else 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
