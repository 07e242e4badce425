"""tools/ab_time.py timing HEAD's package against the working tree's in one
process, on the cheapest report."""

import importlib.util
import pathlib
import subprocess
import sys
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_time", ROOT / "tools" / "ab_time.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def _in_git_checkout() -> bool:
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True).returncode == 0


@pytest.mark.skipif(not _in_git_checkout(), reason="needs the repository's git history")
def test_head_against_working_tree(capsys):
    assert ab.main(["--parent", "HEAD", "--passes", "3", "--number", "2", "dims --k 2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "3 passes of 2 calls, per-call times in us"
    assert lines[2] == "dims --k 2"
    assert lines[3].split()[:4] == ["parent", "HEAD", "exit", "0"]
    assert lines[4].split()[:4] == ["working", "tree", "exit", "0"]
    assert lines[5].startswith("  working tree / parent median: ")
    # the best ratio follows the median one, aligned with it, and is the two bests' ratio
    assert lines[6].startswith("  working tree / parent best:   ")
    best = [float(line.split("best")[1]) for line in lines[3:5]]
    assert float(lines[6].split()[-1]) == pytest.approx(best[1] / best[0], rel=1e-2)
    assert len(lines) == 7
    # the two trees are separate packages, neither of them `syzlab`
    parent, change = (sys.modules[f"syzlab_ab_{side}.cli"] for side in ("parent", "change"))
    assert parent.run is not change.run


@pytest.mark.skipif(not _in_git_checkout(), reason="needs the repository's git history")
def test_parent_tree_outlives_the_timing(capsys, monkeypatch):
    # a report that needs numpy loads the parent's model modules on its first call, from
    # the extracted tree; one whose exit codes differ between the trees makes main exit 1
    assert ab.main(["--parent", "HEAD", "--passes", "1", "--number", "1",
                    "semiflat eval --k 1 --ell 2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[3].split()[:4] == ["parent", "HEAD", "exit", "0"]
    assert lines[4].split()[:4] == ["working", "tree", "exit", "0"]
    real = ab.load_cli
    monkeypatch.setattr(ab, "load_cli", lambda src, name: types.SimpleNamespace(
        run=lambda argv: 2) if name == "syzlab_ab_change" else real(src, name))
    assert ab.main(["--parent", "HEAD", "--passes", "1", "--number", "1", "dims --k 2"]) == 1
    assert "exit codes differ" in capsys.readouterr().out
