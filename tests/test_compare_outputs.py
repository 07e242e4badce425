"""tools/compare_outputs.py on a slice of its corpus: the working tree
against itself shows no difference, and a changed result is reported."""

import importlib.util
import pathlib

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
    assert diffs == [(argvs[0], "exit 0 -> 3; stdout results.a, results.b[1]; stderr")]
    co.report(diffs, len(argvs))
    assert capsys.readouterr().out.splitlines()[:3] == ["1 of 2 argv differ", "", "hkrot: 1"]
