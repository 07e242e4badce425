"""Benchmark worker: one process, one thread, a closed loop over cli.run.

Reads a job as JSON on stdin, writes one JSON result on stdout.  Each
report is timed from outside: the clock starts right before
`syzlab.cli.run(argv)` is called and stops when it has returned, with the
report's stdout and stderr captured in memory.  The host-speed kernel
(hostspeed.py) runs between reports, and each report's time is also kept
scaled to nominal host speed.  Every report is checked as soon as it
returns and only its times and verdict are kept, so the worker's memory
does not grow with the number of reports.  Run with the checkout's `src`
on PYTHONPATH; bench/run.py starts it.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from array import array
from pathlib import Path

import hostspeed
import workloads
from check import Checker
from tracer import Tracer

from syzlab import cli

MAX_BROKEN_SHOWN = 20


def run_one(argv: list[str]) -> tuple[int, float, str, str]:
    """(exit code, seconds, stdout, stderr) of one report.

    An exception escaping cli.run counts as exit code 1 with its traceback
    on stderr, and SystemExit (argparse exits that way, as on --help) as
    its code, which is what the `syzlab` entry point would produce.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.run(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            if isinstance(exc.code, str):
                print(exc.code, file=sys.stderr)
        except Exception:
            rc = 1
            traceback.print_exc()
        dt = time.perf_counter() - t0
    return rc, dt, out.getvalue(), err.getvalue()


class Reports:
    """Times and verdicts of the reports of one pass, checked as they return."""

    def __init__(self, checker: Checker):
        self.checker = checker
        self.raw_s = array("d")
        self.scale = array("d")
        self.failed = 0
        self.broken = 0
        self.broken_shown: list[str] = []
        self._ref = hostspeed.reference_s()

    def run(self, argv: list[str]) -> None:
        rc, dt, stdout, stderr = run_one(argv)
        ref = hostspeed.reference_s()
        self.raw_s.append(dt)
        self.scale.append(hostspeed.scale(self._ref, ref))
        self._ref = ref
        problems = self.checker.problems(argv, rc, stdout)
        self.failed += bool(rc != 0 or problems)
        if problems:
            self.broken += 1
            detail = f" ({stderr.strip().splitlines()[-1]})" if stderr.strip() else ""
            room = MAX_BROKEN_SHOWN - len(self.broken_shown)
            self.broken_shown += [f"{' '.join(argv)}: {p}{detail}" for p in problems[:room]]

    def scaled_s(self) -> list[float]:
        return [t * f for t, f in zip(self.raw_s, self.scale)]

    def result(self) -> dict:
        return {"scaled_s": self.scaled_s(), "raw_s": list(self.raw_s),
                "failed": self.failed, "broken": self.broken,
                "broken_shown": self.broken_shown}


def closed_loop(reports: Reports, blocks, n_blocks: int) -> float:
    """Send `n_blocks` whole blocks, one report at a time; wall seconds taken."""
    t0 = time.perf_counter()
    for _ in range(n_blocks):
        for argv in next(blocks):
            reports.run(argv)
    return time.perf_counter() - t0


def traced_pass(checker: Checker, blocks: list[list[list[str]]]) -> tuple[Reports, float, Tracer]:
    """Run each block untraced, then traced, so both see the same host state.

    Returns the traced reports, the scaled untraced seconds of the same
    reports and the tracer holding the spans.
    """
    tracer = Tracer()
    untraced, traced = Reports(checker), Reports(checker)
    for block in blocks:
        for argv in block:
            untraced.run(argv)
        tracer.install()
        try:
            for argv in block:
                tracer.report_id = len(traced.raw_s)
                traced.run(argv)
        finally:
            tracer.uninstall()
    return traced, sum(untraced.scaled_s()), tracer


def readme_counts() -> list[dict]:
    """Count spans on the README inputs, twice each, in a tracer of their own."""
    tracer = Tracer()
    tracer.install()
    try:
        out = []
        for i, entry in enumerate(workloads.DESIGN["readme_counts"]["counts"]):
            seen = []
            for rep in range(2):
                tracer.report_id = 2 * i + rep
                run_one(entry["argv"].split())
                seen.append(tracer.counts(2 * i + rep).get(entry["span"], 0))
            out.append({**entry, "seen": seen})
    finally:
        tracer.uninstall()
    return out


def main() -> None:
    job = json.load(sys.stdin)
    workload, seed = job["workload"], job["seed"]
    checker = Checker(Path(cli.__file__).with_name("report_schema.json"))
    blocks = workloads.blocks(workload, seed)
    for argv in next(blocks):  # lazy imports and first-call costs stay out of the timing
        run_one(argv)
    blocks = workloads.blocks(workload, seed)
    if not job["trace"]:
        reports = Reports(checker)
        wall = closed_loop(reports, blocks, job["blocks"])
        result = reports.result()
        result["wall_s"] = wall
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        n_blocks = -(-job["min_reports"] // workloads.block_size(workload))
        traced, untraced_s, tracer = traced_pass(checker, [next(blocks) for _ in range(n_blocks)])
        result = traced.result()
        result["untraced_s"] = untraced_s
        result["traced_s"] = sum(result["scaled_s"])
        result["spans"] = tracer.summary(traced.scale)
        result["glue_configs"] = len(tracer.glue_configs)
        result["readme_counts"] = readme_counts()
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
