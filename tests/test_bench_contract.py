"""What the benchmark in bench/ needs from the package, read without importing it.

bench/tracer.py looks up every name in TRACED with getattr and no default,
so deleting or renaming a traced function breaks every traced run; the
benchmark's setup launch calls cli.build_parser() with no arguments.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

from syzlab import cli

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
