"""What the benchmark in bench/ needs from the package, read without importing it.

bench/tracer.py looks up every name in TRACED with getattr and no default,
so deleting or renaming a traced function breaks every traced run; the
benchmark's setup launch calls cli.build_parser() with no arguments.  The
traced run is incorrect unless each README input of design.json makes its
recorded number of calls, twice in one process.
"""

import ast
import importlib
import inspect
import json
import pathlib
import shlex
import sys

import pytest

from syzlab import cli

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"
README_COUNTS = json.loads((BENCH / "design.json").read_text())["readme_counts"]["counts"]


def _tuple_constant(name: str) -> tuple[str, ...]:
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER}")


TRACED = _tuple_constant("TRACED")


@pytest.mark.parametrize("target", TRACED)
def test_traced_name_resolves(target):
    module, func = target.split(".")
    assert callable(getattr(importlib.import_module(f"syzlab.{module}"), func))


def test_traced_callbacks_are_traced():
    assert set(_tuple_constant("TRACED_CALLBACKS")) <= set(TRACED)


def test_build_parser_takes_no_arguments():
    params = inspect.signature(cli.build_parser).parameters.values()
    assert all(p.default is not p.empty for p in params)
    assert cli.build_parser().parse_args(["dims", "--k", "2"]).k == 2


@pytest.mark.parametrize("entry", README_COUNTS, ids=lambda e: e["span"])
def test_readme_call_count(entry, monkeypatch, capsys):
    module, func = entry["span"].split(".")
    orig = getattr(importlib.import_module(f"syzlab.{module}"), func)
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return orig(*args, **kwargs)

    # as bench/tracer.py: every syzlab module that binds the function
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "syzlab" or name.startswith("syzlab.")):
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, attr, counted)
    for _ in range(2):
        calls.clear()
        assert cli.run(shlex.split(entry["argv"])) == 0
        assert len(calls) == entry["calls"]
    capsys.readouterr()
