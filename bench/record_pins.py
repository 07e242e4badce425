"""Record the pinned results of every argv the pinned report kinds can draw.

    PYTHONPATH=src python3 bench/record_pins.py

Writes bench/pins.json: {argv joined by spaces: {field: value}} for the
kinds and fields listed under "pins" in design.json.  Run it from the root
of a checkout only when the pinned values are meant to change; the
benchmark's checker compares every report against this file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads
from worker import run_one

BENCH = Path(__file__).resolve().parent


def main() -> None:
    pins = {}
    for kind, field in workloads.DESIGN["pins"]["kinds"].items():
        n = len(pins)
        for argv in workloads.enumerate_kind(kind):
            key = " ".join(argv)
            if key in pins:
                continue
            rc, _, stdout, _ = run_one(argv)
            if rc not in (0, 3):
                raise SystemExit(f"'{key}' exited {rc}; the draw is outside the domain")
            pins[key] = {field: json.loads(stdout)["results"][field]}
        print(f"{kind}: {len(pins) - n} argv", file=sys.stderr)
    lines = (f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(pins.items()))
    (BENCH / "pins.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
