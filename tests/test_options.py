"""Every setting of the package: each defaulted function parameter and each
dataclass field that a caller may leave out, over src/syzlab.

A default is a value some caller could change.  One that no command changes
is a constant with extra code around it, so a change that adds or removes
a setting must edit SETTINGS below.  Fields with init=False are stored
state, not settings, and are not listed.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "syzlab"

SETTINGS = {
    "calabi.CalabiModel.tau_exact",
    "cli._params_from(alpha)",
    "cli.run(argv)",
    "fibration.CycleSpec.fiber",
    "fibration.CycleSpec.m1",
    "fibration.CycleSpec.m2",
    "fibration.SectionData.a",
    "fibration.SectionData.b",
    "fibration.SectionData.h",
    "fibration.from_ell(theta)",
    "glue.mass_integral(n)",
    "glue.required_t(t_prime)",
    "glue.solve_alpha(n)",
    "glue.solve_alpha(t_prime)",
    "mirror.mirror_map(tau_exact)",
    "numerics.fit_decay(model)",
    "semiflat.ModelParams.alpha",
    "semiflat.ModelParams.b0",
    "semiflat.ModelParams.eps",
    "semiflat.ModelParams.kappa",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _init_false(value: ast.expr) -> bool:
    return isinstance(value, ast.Call) and any(
        kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False
        for kw in value.keywords)


def _settings_in(node: ast.AST, prefix: str, found: set) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = child.args
            positional = a.posonlyargs + a.args
            named = positional[len(positional) - len(a.defaults):]
            named += [arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            found.update(f"{prefix}{child.name}({arg.arg})" for arg in named)
            _settings_in(child, f"{prefix}{child.name}.", found)
        elif isinstance(child, ast.ClassDef):
            if _is_dataclass(child):
                found.update(
                    f"{prefix}{child.name}.{st.target.id}" for st in child.body
                    if isinstance(st, ast.AnnAssign) and st.value is not None
                    and not _init_false(st.value))
            _settings_in(child, f"{prefix}{child.name}.", found)


def settings() -> set:
    found: set = set()
    for path in sorted(SRC.glob("*.py")):
        _settings_in(ast.parse(path.read_text()), path.stem + ".", found)
    return found


def test_every_setting_is_listed():
    found = settings()
    assert found - SETTINGS == set(), "new settings; list them or make them constants"
    assert SETTINGS - found == set(), "settings gone; remove them from SETTINGS"
