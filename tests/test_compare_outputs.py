"""tools/compare_outputs.py on a slice of its corpus: the working tree
against itself shows no difference, and a changed result is reported."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("compare_outputs",
                                               ROOT / "tools" / "compare_outputs.py")
co = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(co)


def test_corpus_covers_every_source():
    argvs = co.corpus()
    assert len(argvs) > 1700
    assert all(argv[-1] == "--no-timestamp" for argv in argvs)
    assert len({tuple(argv) for argv in argvs}) == len(argvs)
    assert ["hkrot", "--k", "1", "--tau", "0+1e200i", "--no-timestamp"] in argvs
    assert co.readme_examples()[0] + ["--no-timestamp"] in argvs


def test_tree_matches_itself():
    argvs = co.corpus()
    picked = argvs[::len(argvs) // 20][:20]
    first = co.run_tree(ROOT / "src", picked)
    second = co.run_tree(ROOT / "src", picked)
    assert len(first) == len(picked)
    assert {code for code, _, _ in first} <= {0, 1, 2, 3}
    assert co.differences(picked, first, second) == []


def test_difference_is_reported(capsys):
    argvs = [["hkrot", "--k", "1", "--tau", "0+1i", "--no-timestamp"],
             ["dims", "--k", "1", "--no-timestamp"]]
    old = [[0, '{"results": {"a": 1.0, "b": [1, 2]}}\n', ""], [0, "{}\n", ""]]
    new = [[3, '{"results": {"a": 1.5, "b": [1, 3]}}\n', "warn"], [0, "{}\n", ""]]
    diffs = co.differences(argvs, old, new)
    assert diffs == [(argvs[0], [("exit", 0, 3), ("results.a", 1.0, 1.5),
                                 ("results.b[1]", 2, 3), ("stderr", None, None)])]
    co.report(diffs, len(argvs))
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["1 of 2 argv differ", "", "hkrot: 1"]
    assert lines[4] == ("    exit 0 -> 3; results.a 1.0 -> 1.5 (rel 3.33e-01);"
                        " results.b[1] 2 -> 3 (rel 3.33e-01); stderr")


def test_numeric_moves_summarised_by_field(capsys):
    # one line per (command, field): argv count and largest relative move;
    # a field that is not a number on both sides has no relative difference
    argvs = [["glue", "positivity", "--alpha", str(a), "--no-timestamp"] for a in (1, 2)]
    argvs.append(["mirror", "--k", "1", "--no-timestamp"])
    old = [[0, '{"results": {"margin": 1e-4, "t": 2.0}}', ""],
           [0, '{"results": {"margin": 3e-4, "t": 2.0}}', ""],
           [0, '{"results": {"sf_class": "standard"}}', ""]]
    new = [[0, '{"results": {"margin": 1.000000000001e-4, "t": 2.0}}', ""],
           [0, '{"results": {"margin": 3.0000000003e-4, "t": 2.0}}', ""],
           [0, '{"results": {"sf_class": "irregular"}}', ""]]
    assert co.relative_difference(1e-4, 1.000000000001e-4) == pytest.approx(1e-12)
    assert co.relative_difference(True, False) is None
    co.report(co.differences(argvs, old, new), len(argvs))
    lines = capsys.readouterr().out.splitlines()
    assert "    results.margin 0.0001 -> 0.0001000000000001 (rel 1.00e-12)" in lines
    assert lines[-3:] == ["by field:",
                          "  glue positivity results.margin: 2 argv, largest rel 1.00e-10",
                          "  mirror results.sf_class: 1 argv, largest rel -"]
