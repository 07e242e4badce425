"""tools/ab_time.py timing HEAD's package against the working tree's in one
process, on the cheapest report."""

import importlib.util
import pathlib
import subprocess
import sys

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
    # the two trees are separate packages, neither of them `syzlab`
    parent, change = (sys.modules[f"syzlab_ab_{side}.cli"] for side in ("parent", "change"))
    assert parent.run is not change.run
