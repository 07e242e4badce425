"""A/B benchmark of a parent revision against the working tree.

    python3 tools/ab_bench.py --parent <rev> --workload <name> [--seeds 0,7]
        [--pairs 10] [--seconds 20] [--claim METRIC:PCT] [--out FILE]

runs `bench/run.py --workload <name> --seed <seed> --seconds <seconds>
--trace 0` in pairs, one run at a time: the parent's `bench/` and `src/`
from `git archive` through compare_outputs.extract_src, and a copy of the
working tree's.  Every run gets a fresh directory, and the side that goes
first alternates (parent first in even pairs).  It prints one line per run
to stderr and the `workloads` section of a BENCH_<n>.json to stdout: per
seed, each end-to-end metric's runs per side, their inclusive quartiles,
`change_wins` (pairs the change won on the metric's better side, ties for
neither) and `median_change_rel`.  `--out` merges that section into a JSON
file, creating it if needed.

`--claim report_ms_p50:15` states that the metric improves by at least 15 %.
It holds at a seed if the change's median is that much better, the change
wins at least 9 of every 10 pairs, and the medians differ by more than the
parent's interquartile range.  The exit code is 1 if the claim fails at any
seed.  Only the standard library and git are used.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from compare_outputs import ROOT, extract_src  # noqa: E402

SIDES = ("parent", "change")
TREES = ("bench", "src")
_IGNORE = shutil.ignore_patterns("__pycache__", "*.pyc")


def better_sides() -> dict[str, str]:
    """Each end-to-end metric of BENCHMARK.json to its better side, "lower" or "higher"."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in declared["end_to_end"]}


def place(side: str, rev: str, into: Path) -> None:
    """Put the side's bench/ and src/ under into: the parent's by git archive,
    the change's copied from the working tree."""
    if side == "parent":
        extract_src(rev, into, TREES)
        return
    for tree in TREES:
        shutil.copytree(ROOT / tree, into / tree, ignore=_IGNORE)


def run_once(side: str, rev: str, workload: str, seed: int, seconds: float) -> dict:
    """The last stdout line of one bench/run.py run, parsed, in a fresh directory."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        place(side, rev, Path(tmp))
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                              cwd=tmp, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{side} run failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return dict.fromkeys(("q1", "median", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise(runs: list[dict[str, dict]], better: dict[str, str]) -> dict:
    """One seed's entry from its pairs, each {"parent": result, "change": result}."""
    metrics = {}
    for name in runs[0]["parent"]["metrics"]:
        if name not in better:
            continue
        vals = {s: [pair[s]["metrics"][name]["value"] for pair in runs] for s in SIDES}
        sign = 1.0 if better[name] == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(vals["parent"], vals["change"]))
        q = {s: quartiles(vals[s]) for s in SIDES}
        metrics[name] = {**q, "better": better[name], "change_wins": f"{wins}/{len(runs)}",
                         "median_change_rel": q["change"]["median"] / q["parent"]["median"] - 1.0,
                         "runs": vals}
    return {"runs_per_side": len(runs),
            "all_correct": {s: all(pair[s]["correct"] for pair in runs) for s in SIDES},
            "attempted": sorted({pair[s]["attempted"] for pair in runs for s in SIDES}),
            "failed": {s: [pair[s]["failed"] for pair in runs] for s in SIDES},
            "metrics": metrics}


def claim_met(entry: dict, metric: str, pct: float) -> tuple[bool, str]:
    """Whether one seed's entry meets the claim, and a line saying why."""
    m = entry["metrics"][metric]
    parent, change = m["parent"], m["change"]
    gain = m["median_change_rel"] * (1.0 if m["better"] == "higher" else -1.0)
    wins, pairs = map(int, m["change_wins"].split("/"))
    iqr = parent["q3"] - parent["q1"]
    checks = (gain * 100.0 >= pct, 10 * wins >= 9 * pairs,
              abs(change["median"] - parent["median"]) > iqr)
    return all(checks), (f"{parent['median']:.4g} -> {change['median']:.4g}"
                         f" ({100.0 * m['median_change_rel']:+.1f}%), change wins {wins}/{pairs},"
                         f" parent IQR {iqr:.3g}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0,7", help="comma-separated seeds")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs per seed")
    parser.add_argument("--seconds", type=float, default=20.0, help="bench/run.py --seconds")
    parser.add_argument("--claim", help="METRIC:PCT, a gain of at least PCT percent")
    parser.add_argument("--out", type=Path, help="JSON file to merge the workloads section into")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    better = better_sides()
    if args.claim:
        metric, _, pct = args.claim.partition(":")
        if metric not in better:
            parser.error(f"--claim names no end-to-end metric: {metric!r}")
        pct = float(pct)
    section = {}
    for seed in seeds:
        runs = []
        for i in range(args.pairs):
            pair = {}
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                pair[side] = run_once(side, args.parent, args.workload, seed, args.seconds)
                print(f"seed {seed} pair {i} {side}: " + json.dumps(
                    {k: v["value"] for k, v in pair[side]["metrics"].items()}), file=sys.stderr)
            runs.append(pair)
        section[f"seed {seed}"] = summarise(runs, better)
    out = {args.workload: section}
    if args.out:
        whole = json.loads(args.out.read_text()) if args.out.exists() else {}
        whole.setdefault("workloads", {}).update(out)
        args.out.write_text(json.dumps(whole, indent=1) + "\n")
    print(json.dumps(out, indent=1))
    met = True
    if args.claim:
        for seed in seeds:
            ok, why = claim_met(section[f"seed {seed}"], metric, pct)
            met = met and ok
            print(f"claim {args.claim} at seed {seed}: {'met' if ok else 'not met'}: {why}")
    return 0 if met else 1


if __name__ == "__main__":
    sys.exit(main())
