"""Benchmark of syzlab reports: one command per workload.

    python3 bench/run.py --workload grid-quadrature --seed 0 --seconds 20 --trace 0

Run from the root of a syzlab checkout; the package is imported from its
`src` directory.  The run first launches fresh interpreters to time
`import syzlab.cli` plus `build_parser()` (setup_s, the median of several
launches), then starts one worker process (bench/worker.py) that sends
seeded reports to `syzlab.cli.run` in a closed loop and checks every report
it gets back (bench/check.py).  `--seconds` sets how many reports a run
sends: whole blocks of the workload's mix, as many as fit in that time at
the block rate recorded in design.json for the host the benchmark was
defined on.  The number of reports is thus fixed by the arguments, so the
same seed gives the same reports, and the same failure count, on every
run.  Every time is scaled to nominal host speed by a reference kernel
timed next to it (bench/hostspeed.py); the raw times are printed beside
the metrics.  With `--trace 0` it prints the end-to-end metrics; with
`--trace 1` it runs the same reports untraced and then traced, and prints
per-layer metrics with the tracing overhead.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import workloads

BENCH = Path(__file__).resolve().parent

THREAD_VARS = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                "VECLIB_MAXIMUM_THREADS")}
SETUP_LAUNCHES = 15
DEADLINE_S = 170.0
# Prints import ms and the scipy flag as soon as syzlab is ready, then the
# median of three host-speed kernel runs, made after the timed part so they
# do not lengthen it.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import syzlab.cli
t1 = time.perf_counter()
syzlab.cli.build_parser()
print((t1 - t0) * 1e3, int("scipy" in sys.modules), flush=True)
sys.path.insert(0, {bench!r})
import hostspeed
print(sorted(hostspeed.reference_s() for _ in range(3))[1], flush=True)
""".format(bench=str(BENCH))

# per-layer metric -> (span name, field, unit); fields are per traced report
SPAN_METRICS = {
    "cli.build_parser.ms": ("cli.build_parser", "ms", "ms/report"),
    "cli.run.self_ms": ("cli.run", "self_ms", "ms/report"),
    "semiflat.sf_form_chart.calls": ("semiflat.sf_form_chart", "calls", "calls/report"),
    "semiflat.sf_form_chart.self_ms": ("semiflat.sf_form_chart", "self_ms", "ms/report"),
    "semiflat.pair_cycle.ms": ("semiflat.pair_cycle", "ms", "ms/report"),
    "semiflat.ma_residual.calls": ("semiflat.ma_residual", "calls", "calls/report"),
    "semiflat.riemannian_metric_chart.calls": ("semiflat.riemannian_metric_chart", "calls", "calls/report"),
    "semiflat.christoffel_fd.calls": ("semiflat.christoffel_fd", "calls", "calls/report"),
    "semiflat.riemann_fd.self_ms": ("semiflat.riemann_fd", "self_ms", "ms/report"),
    "numerics.quad_periodic.evals": ("numerics.quad_periodic.f", "calls", "calls/report"),
    "numerics.quad_periodic.self_ms": ("numerics.quad_periodic", "self_ms", "ms/report"),
    "numerics.find_root.calls": ("numerics.find_root", "calls", "calls/report"),
    "numerics.find_root.evals": ("numerics.find_root.f", "calls", "calls/report"),
    "numerics.fit_decay.ms": ("numerics.fit_decay", "ms", "ms/report"),
    "slag.check_special.ms": ("slag.check_special", "ms", "ms/report"),
    "slag.second_fundamental_form.calls": ("slag.second_fundamental_form", "calls", "calls/report"),
    "slag.second_fundamental_form.ms": ("slag.second_fundamental_form", "ms", "ms/report"),
    "calabi.verify_rotation.calls": ("calabi.verify_rotation", "calls", "calls/report"),
    "calabi.verify_rotation.ms": ("calabi.verify_rotation", "ms", "ms/report"),
    "glue.mass_integral.calls": ("glue.mass_integral", "calls", "calls/report"),
    "glue.mass_integral.ms": ("glue.mass_integral", "ms", "ms/report"),
    "glue.q_coefficient.calls": ("glue.q_coefficient", "calls", "calls/report"),
    "glue.solve_alpha.ms": ("glue.solve_alpha", "ms", "ms/report"),
    "glue.positivity_scan.ms": ("glue.positivity_scan", "ms", "ms/report"),
    "fibration.from_ell.calls": ("fibration.from_ell", "calls", "calls/report"),
    "forms.i_half_a_wedge_abar.calls": ("forms.i_half_a_wedge_abar", "calls", "calls/report"),
}


class BenchError(Exception):
    """The benchmark cannot produce a result in this directory."""


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def setup_launch(env: dict, cwd: Path) -> tuple[float, float, int, float]:
    """(seconds until import + build_parser finished, import ms, scipy flag,
    host-speed scale), times raw."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True, env=env, cwd=cwd)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        ref = proc.stdout.readline()
        proc.stdout.close()
        if proc.wait(timeout=30) != 0 or not ref:
            raise BenchError("setup launch failed to import syzlab.cli")
    finally:
        _stop(proc)
    import_ms, scipy = line.split()
    return elapsed, float(import_ms), int(scipy), hostspeed.scale(float(ref), float(ref))


def run_worker(job: dict, env: dict, cwd: Path, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py")],
                          input=json.dumps(job), capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError("worker failed:\n" + proc.stderr[-2000:])
    return json.loads(proc.stdout)


def environment(src: Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_vars": THREAD_VARS,
        "loop": workloads.DESIGN["loop"],
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((src / "syzlab").rglob("*.py"))),
    }


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(result: dict, setup: list) -> dict:
    ms = [t * 1e3 for t in result["scaled_s"]]
    raw = [t * 1e3 for t in result["raw_s"]]
    n, failed = len(ms), result["failed"]
    busy = sum(result["scaled_s"])
    return {
        "report_ms_p50": (statistics.median(ms), "ms",
                          f"median of {n} reports; raw {statistics.median(raw):.4g} ms"),
        "report_ms_p90": (_p90(ms), "ms",
                          f"90th percentile of {n} reports; raw {_p90(raw):.4g} ms"),
        "reports_per_s": (n / busy, "1/s",
                          f"{n} reports in {busy:.2f} s of cli.run; raw {n / sum(result['raw_s']):.4g}"
                          f"/s, {n / result['wall_s']:.4g}/s over the closed-loop wall time "
                          f"with checking and host-speed kernels"),
        "setup_s": (statistics.median(s[0] * s[3] for s in setup), "s",
                    f"median of {len(setup)} launches; raw "
                    f"{statistics.median(s[0] for s in setup):.4g} s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", "maximum RSS of the worker"),
        "ok_share": (1.0 - failed / n, "share",
                     f"failed_share {failed / n:.4f}: {failed} of {n} reports failed"),
    }


def per_layer(result: dict, setup: list) -> dict:
    n = len(result["scaled_s"])
    spans = result["spans"]
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    out = {}
    for metric, (span, field, unit) in SPAN_METRICS.items():
        s = spans.get(span, zero)
        total = {"calls": s["calls"], "ms": s["s"] * 1e3, "self_ms": s["self_s"] * 1e3}[field]
        out[metric] = (total / n, unit, f"{total:.6g} over {n} reports")
    out["cli.import_ms"] = (statistics.median(s[1] * s[3] for s in setup), "ms",
                            f"median of {len(setup)} launches")
    out["setup.scipy_imported"] = (max(s[2] for s in setup), "flag",
                                   "1 if scipy is loaded after import and build_parser")
    rotate = spans.get("calabi.rotate", zero)["calls"]
    verify = spans.get("calabi.verify_rotation", zero)["calls"]
    out["calabi.rotate.calls_per_verify"] = (rotate / verify if verify else 0.0, "calls/verify",
                                             f"{rotate} rotate / {verify} verify_rotation")
    harmonic = spans.get("glue.harmonic_match", zero)["calls"]
    configs = result["glue_configs"]
    out["glue.harmonic_match.calls_per_config"] = (
        harmonic / configs if configs else 0.0, "calls/config",
        f"{harmonic} harmonic_match / {configs} configs")
    out["trace.overhead"] = (result["traced_s"] / result["untraced_s"] - 1.0, "share",
                             f"traced {result['traced_s']:.3f} s vs untraced "
                             f"{result['untraced_s']:.3f} s on the same {n} reports")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.DESIGN["workloads"]))
    parser.add_argument("--seed", type=int, default=workloads.DESIGN["default_seed"])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = BENCH.parent
    src = root / "src"
    sys.path.insert(0, str(src))
    spec = importlib.util.find_spec("syzlab")
    if spec is None or Path(spec.origin).parent != src / "syzlab":
        raise BenchError(f"no syzlab package under {src}")

    env = {**os.environ, **THREAD_VARS, "PYTHONPATH": str(src)}
    setup_launch(env, root)  # first launch may compile bytecode; not counted
    setup = [setup_launch(env, root) for _ in range(SETUP_LAUNCHES)]
    design = workloads.DESIGN
    n_blocks = max(math.ceil(design["min_reports"] / workloads.block_size(args.workload)),
                   round(args.seconds * design["workloads"][args.workload]["blocks_per_s"]))
    job = {"workload": args.workload, "seed": args.seed, "blocks": n_blocks,
           "trace": args.trace, "min_reports": design["min_reports"]}
    result = run_worker(job, env, root, DEADLINE_S - (time.perf_counter() - started))

    n = len(result["scaled_s"])
    broken = result["broken_shown"]
    print("env " + json.dumps(environment(src), sort_keys=True))
    wall = f" in {result['wall_s']:.2f} s" if "wall_s" in result else ""
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {n} reports{wall}, mix "
          + json.dumps(workloads.DESIGN["workloads"][args.workload]["mix"]))
    if args.trace:
        metrics = per_layer(result, setup)
        for entry in result["readme_counts"]:
            seen, want = entry["seen"], entry["calls"]
            ok = seen == [want, want]
            if not ok:
                broken.append(f"{entry['span']} count on '{entry['argv']}' was {seen}, "
                              f"recorded {want} in design.json")
            print(f"readme count {entry['span']} on '{entry['argv']}': {seen[0]}, {seen[1]} "
                  f"({'matches' if ok else 'differs from'} recorded {want})")
    else:
        metrics = end_to_end(result, setup)
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value:.6g} {unit} ({note})")
    for line in broken:
        print("BROKEN " + line)
    correct = result["broken"] == 0 and not broken
    print(f"correct: {correct}, {result['broken']} reports broken, "
          f"failed {result['failed']} of {n}")
    print(json.dumps({
        "correct": correct,
        "attempted": n,
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def _terminate(signum, frame):
    # Unwinding kills and waits for the worker (subprocess.run does so on
    # any exception) and any setup launch (setup_launch's finally).
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
