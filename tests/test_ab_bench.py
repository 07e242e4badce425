"""tools/ab_bench.py running one pair of short benchmark runs, HEAD against
the working tree."""

import importlib.util
import json
import pathlib
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "tools" / "ab_bench.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def _in_git_checkout() -> bool:
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True).returncode == 0


@pytest.mark.skipif(not _in_git_checkout(), reason="needs the repository's git history")
def test_one_pair_head_against_working_tree(tmp_path, capsys):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"change": "kept", "workloads": {"other": {}}}))
    code = ab.main(["--parent", "HEAD", "--workload", "fd-curvature", "--seeds", "0",
                    "--pairs", "1", "--seconds", "1", "--claim", "report_ms_p50:90",
                    "--out", str(out)])
    # no change gains 90 %, so the claim fails and says why
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].startswith("claim report_ms_p50:90 at seed 0: not met: ")
    whole = json.loads(out.read_text())
    assert whole["change"] == "kept" and set(whole["workloads"]) == {"other", "fd-curvature"}
    entry = whole["workloads"]["fd-curvature"]["seed 0"]
    assert json.loads("\n".join(lines[:-1])) == {"fd-curvature": {"seed 0": entry}}
    assert entry["runs_per_side"] == 1
    assert entry["all_correct"] == {"parent": True, "change": True}
    assert set(entry["metrics"]) == set(ab.better_sides())
    p50 = entry["metrics"]["report_ms_p50"]
    assert p50["better"] == "lower" and p50["change_wins"] in ("0/1", "1/1")
    assert p50["parent"]["q1"] == p50["parent"]["median"] == p50["runs"]["parent"][0]
    assert p50["median_change_rel"] == pytest.approx(
        p50["runs"]["change"][0] / p50["runs"]["parent"][0] - 1.0)


def test_quartiles_are_inclusive():
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert ab.quartiles([2.5]) == {"q1": 2.5, "median": 2.5, "q3": 2.5}
