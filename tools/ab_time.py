"""Time syzlab reports of a parent revision and the working tree in one process.

    python3 tools/ab_time.py --parent <rev> [--passes N] [--number M] ARGV ...

extracts the parent's `src/` with `git archive`, as compare_outputs.py
does, and imports the parent's package and the working tree's under two
package names in this one interpreter.  Each ARGV is one quoted command
line (`"hkrot --k 1 --tau 0+1i"`).  For each, both trees' `cli.run` take
one untimed call, then N passes of M calls each, the order of the two
trees alternating from pass to pass (parent first in even passes); each
call goes through cli_capture.run_captured with stdout and stderr sent to
os.devnull.  It prints, per ARGV and tree, the exit code and the median and
best of the passes' mean time per call, then the working tree's median over
the parent's and its best over the parent's (the best pass is the one that
other load on the host slowed least), and exits 1 if the two trees' exit
codes differ on some ARGV.
Only the standard library, numpy (through syzlab) and git are used.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import shlex
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from cli_capture import run_captured  # noqa: E402
from compare_outputs import ROOT, extract_src  # noqa: E402


def load_cli(src: Path, name: str):
    """The cli module of the syzlab package under src, imported afresh as the
    top-level package `name` so that two trees can share a process."""
    for stale in [key for key in sys.modules if key.split(".")[0] == name]:
        del sys.modules[stale]
    pkg = Path(src) / "syzlab"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def time_passes(runs, argv: list[str], passes: int, number: int):
    """(exit codes, per-pass mean seconds per call) of each run(argv),
    the order of the runs reversed in every odd pass."""
    times = [[] for _ in runs]
    with open(os.devnull, "w") as sink:
        codes = [run_captured(run, argv, sink)[0] for run in runs]
        for i in range(passes):
            order = range(len(runs)) if i % 2 == 0 else reversed(range(len(runs)))
            for side in order:
                run = runs[side]
                t0 = time.perf_counter()
                for _ in range(number):
                    run_captured(run, argv, sink)
                times[side].append((time.perf_counter() - t0) / number)
    return codes, times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to time against")
    parser.add_argument("--passes", type=int, default=21, help="timed passes per tree")
    parser.add_argument("--number", type=int, default=20, help="calls per pass")
    parser.add_argument("argv", nargs="+", help="one quoted syzlab command line each")
    args = parser.parse_args(argv)
    if args.passes < 1 or args.number < 1:
        parser.error("--passes and --number must be positive")
    sides = (f"parent {args.parent}", "working tree")
    status = 0
    # the parent's tree stays until timing ends: its cli loads the model modules on the
    # first report that needs numpy
    with tempfile.TemporaryDirectory() as tmp:
        parent = load_cli(extract_src(args.parent, Path(tmp)), "syzlab_ab_parent")
        change = load_cli(ROOT / "src", "syzlab_ab_change")
        print(f"{args.passes} passes of {args.number} calls, per-call times in us")
        for line in args.argv:
            codes, times = time_passes((parent.run, change.run), shlex.split(line),
                                       args.passes, args.number)
            print(f"\n{line}")
            for side, code, t in zip(sides, codes, times):
                print(f"  {side:<{max(map(len, sides))}}  exit {code}"
                      f"  median {1e6 * statistics.median(t):9.1f}  best {1e6 * min(t):9.1f}")
            ratio = statistics.median(times[1]) / statistics.median(times[0])
            print(f"  working tree / parent median: {ratio:.3f}")
            print(f"  working tree / parent best:   {min(times[1]) / min(times[0]):.3f}")
            if codes[0] != codes[1]:
                print("  exit codes differ: the times compare different work")
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
