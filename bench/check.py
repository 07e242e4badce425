"""Output checker behind failed_share and the correctness verdict.

A report fails when its exit code is not 0, its stdout is not strict JSON,
it does not validate against the package's report_schema.json, or a pinned
result is outside its tolerance of the value recorded in pins.json.  A
report is broken, which makes the run incorrect, when it fails for any of
these reasons except a check that the report itself marks as failed
(exit code 3 with matching checks).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import jsonschema

PINS = json.loads(Path(__file__).with_name("pins.json").read_text())


def _reject_constant(name: str):
    raise ValueError(f"non-strict JSON constant {name}")


def _pin_problem(field: str, seen, want) -> str | None:
    if field == "alpha_star":
        ok = isinstance(seen, float) and abs(seen - want) <= 1e-6 * abs(want)
    elif field == "exponent":
        ok = isinstance(seen, float) and math.isfinite(seen) and abs(seen - want) <= 0.15
    else:
        ok = seen == want
    return None if ok else f"pinned {field} {seen!r}, recorded {want!r}"


class Checker:
    def __init__(self, schema_path: Path):
        schema = json.loads(schema_path.read_text())
        self.validator = jsonschema.Draft7Validator(schema)

    def problems(self, argv: list[str], rc: int, stdout: str) -> list[str]:
        """Every reason this report breaks the output contract; [] if none."""
        if rc not in (0, 3):
            return [f"exit code {rc}"]
        try:
            report = json.loads(stdout, parse_constant=_reject_constant)
        except ValueError as exc:
            return [f"stdout is not strict JSON: {exc}"]
        out = [f"schema: {e.message}" for e in self.validator.iter_errors(report)]
        if out:
            return out
        if (rc == 0) != all(c["passed"] for c in report["checks"]):
            out.append(f"exit code {rc} disagrees with the checks")
        for field, want in PINS.get(" ".join(argv), {}).items():
            problem = _pin_problem(field, report["results"].get(field), want)
            if problem:
                out.append(problem)
        return out
