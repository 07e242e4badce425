"""The table of checks, cli._CHECKS: the corpus emits every check it
declares and no other, and no check passes a NaN."""

import importlib.util
import json
import math
import pathlib

import pytest

from syzlab import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


co, capture = _tool("compare_outputs"), _tool("cli_capture")

NAN = math.nan
# a passing (measured, *context) of each check whose rule reads context
_PASSING = {"bounded_ratio": (2.0, 1.0),
            "sign_change": ("+1.000e+00/-1.000e+00", 1.0, -1.0),
            "dims": ([9, 10, 9], 1)}


def test_corpus_emits_every_check(monkeypatch, tmp_path):
    # some edges write --csv files into the working directory
    monkeypatch.chdir(tmp_path)
    emitted = set()
    for argv in co.corpus():
        code, out, _ = capture.run_captured(cli.run, argv)
        # a check with no row raises KeyError, which run_captured reports
        assert code in (0, 1, 2, 3), (argv, code)
        # --help also exits 0, with usage text
        if code in (0, 3) and out.startswith("{"):
            emitted |= {c["name"] for c in json.loads(out)["checks"]}
    assert emitted == set(cli._CHECKS)


@pytest.mark.parametrize("name", sorted(set(cli._CHECKS) - {"sign_change"}))
def test_nan_measured_fails(name):
    # sign_change's measured is the text of its context, tested below
    context = _PASSING.get(name, (None,))[1:]
    assert cli._check(name, NAN, *context)["passed"] is False


@pytest.mark.parametrize("name", sorted(_PASSING))
def test_nan_context_fails(name):
    measured, *context = _PASSING[name]
    assert cli._check(name, measured, *context)["passed"] is True
    for i in range(len(context)):
        nan_at_i = context[:i] + [NAN] + context[i + 1:]
        assert cli._check(name, measured, *nan_at_i)["passed"] is False, i
