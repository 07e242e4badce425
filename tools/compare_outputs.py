"""Compare syzlab's outputs at a parent revision with the working tree.

    python3 tools/compare_outputs.py --parent <rev>

extracts the parent's `src/` with `git archive` into a temporary directory
and runs one argv corpus through `syzlab.cli.run` once per tree, each tree
in its own subprocess.  It prints every argv whose stdout, stderr or exit
code differ, grouped by command with counts, and exits 1 if any argv
differs.  For a JSON report it names the fields that differ, and for a
field that is a number on both sides it prints old -> new and the relative
difference; it ends with one line per (command, field) giving the number
of argv and the largest relative difference.

The corpus, in this order and without repeats:
- the argv keys of bench/pins.json;
- 6 blocks of each benchmark workload at seeds 0 and 7, drawn through
  bench/workloads.py;
- the `syzlab ...` examples in README.md;
- tools/edges.txt, one argv per line.

Every argv runs with --no-timestamp and in a temporary working directory,
so that --csv writes nothing into the repository.  Only the standard
library and git are used.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = 6
SEEDS = (0, 7)

# Runs in the child: reads a JSON list of argv on stdin and writes one
# [exit code, stdout, stderr] per argv as JSON (cli_capture.run_captured).
_RUNNER = r"""
import json, os, sys, warnings
import syzlab, syzlab.cli
from cli_capture import run_captured
if not os.path.realpath(syzlab.__file__).startswith(os.path.realpath(sys.argv[1])):
    sys.exit(f"imported syzlab from {syzlab.__file__}, not from {sys.argv[1]}")
warnings.simplefilter("always")
json.dump([run_captured(syzlab.cli.run, argv) for argv in json.load(sys.stdin)], sys.stdout)
"""


def _load_workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def readme_examples() -> list[list[str]]:
    text = (ROOT / "README.md").read_text()
    return [shlex.split(line)[1:]
            for block in re.findall(r"```sh\n(.*?)```", text, re.S)
            for line in block.splitlines() if line.startswith("syzlab ")]


def corpus() -> list[list[str]]:
    """The argv corpus, each ending in --no-timestamp, without repeats."""
    pins = [key.split() for key in json.loads((ROOT / "bench" / "pins.json").read_text())]
    workloads = _load_workloads()
    drawn = [argv for name in workloads.DESIGN["workloads"] for seed in SEEDS
             for block in itertools.islice(workloads.blocks(name, seed), BLOCKS)
             for argv in block]
    edges = [shlex.split(line, comments=True)
             for line in (ROOT / "tools" / "edges.txt").read_text().splitlines()]
    out, seen = [], set()
    for argv in itertools.chain(pins, drawn, readme_examples(), edges):
        if not argv:
            continue
        if "--no-timestamp" not in argv:
            argv = argv + ["--no-timestamp"]
        if tuple(argv) not in seen:
            seen.add(tuple(argv))
            out.append(argv)
    return out


def run_tree(src: Path, argvs: list[list[str]]) -> list[list]:
    """[exit code, stdout, stderr] of each argv, run on the package under src
    in a fresh interpreter whose working directory is a temporary one."""
    src = Path(src).resolve()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT / "tools")]),
               PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([sys.executable, "-c", _RUNNER, str(src)], cwd=cwd, env=env,
                              input=json.dumps(argvs), capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"runner failed on {src}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def _json_leaves(a, b, path: str = "") -> list[tuple[str, object, object]]:
    """(path, old, new) of the leaves where two parsed JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [leaf for key in sorted(a.keys() | b.keys())
                for leaf in _json_leaves(a.get(key), b.get(key), f"{path}.{key}")]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [leaf for i, (x, y) in enumerate(zip(a, b))
                for leaf in _json_leaves(x, y, f"{path}[{i}]")]
    return [] if a == b else [(path.lstrip(".") or ".", a, b)]


def relative_difference(old, new) -> float | None:
    """|new - old| / max(|old|, |new|) when both are numbers, else None."""
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new)):
        return None
    return abs(new - old) / max(abs(old), abs(new))


def changes(old: list, new: list) -> list[tuple[str, object, object]]:
    """(field, old, new) for each part of two [exit code, stdout, stderr]
    results that differs: `exit`, each differing leaf of a JSON stdout by
    its path, or `stdout` / `stderr` as a whole (values None)."""
    out = []
    if old[0] != new[0]:
        out.append(("exit", old[0], new[0]))
    if old[1] != new[1]:
        try:
            out += _json_leaves(json.loads(old[1]), json.loads(new[1]))
        except ValueError:
            out.append(("stdout", None, None))
    if old[2] != new[2]:
        out.append(("stderr", None, None))
    return out


def _describe(moved: list[tuple[str, object, object]]) -> str:
    parts = []
    for field, a, b in moved:
        rel = relative_difference(a, b)
        if field == "exit":
            parts.append(f"exit {a} -> {b}")
        elif rel is not None:
            parts.append(f"{field} {a!r} -> {b!r} (rel {rel:.2e})")
        else:
            parts.append(field)
    return "; ".join(parts)


def differences(argvs, old, new) -> list[tuple[list[str], list]]:
    """(argv, changes) for each argv whose results differ."""
    return [(argv, changes(a, b)) for argv, a, b in zip(argvs, old, new) if a != b]


def command_of(argv: list[str]) -> str:
    return " ".join(itertools.takewhile(lambda a: not a.startswith("-"), argv))


def report(diffs, total: int) -> None:
    """Print each differing argv by command, then one line per (command,
    field): how many argv it moved in and the largest relative difference
    (`-` for the exit code and where a value is not a number on both sides)."""
    print(f"{len(diffs)} of {total} argv differ")
    counts = Counter(command_of(argv) for argv, _ in diffs)
    for command in sorted(counts):
        print(f"\n{command}: {counts[command]}")
        for argv, moved in diffs:
            if command_of(argv) == command:
                print(f"  {shlex.join(argv)}\n    {_describe(moved)}")
    fields: dict[tuple[str, str], list] = {}
    for argv, moved in diffs:
        for field, a, b in moved:
            rel = None if field == "exit" else relative_difference(a, b)
            fields.setdefault((command_of(argv), field), []).append(rel)
    if fields:
        print("\nby field:")
    for (command, field), rels in sorted(fields.items()):
        largest = "-" if None in rels else f"{max(rels):.2e}"
        print(f"  {command} {field}: {len(rels)} argv, largest rel {largest}")


def extract_src(rev: str, into: Path, trees=("src",)) -> Path:
    """Extract the trees of rev, src/ alone by default, under into with git
    archive; returns into/src."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, *trees],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return into / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    args = parser.parse_args()
    argvs = corpus()
    with tempfile.TemporaryDirectory() as tmp:
        old = run_tree(extract_src(args.parent, Path(tmp)), argvs)
    new = run_tree(ROOT / "src", argvs)
    diffs = differences(argvs, old, new)
    print(f"parent {args.parent} vs working tree, corpus of {len(argvs)} argv")
    report(diffs, len(argvs))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
