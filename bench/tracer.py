"""Span tracer that wraps syzlab functions from outside the package.

Each traced function is replaced by a wrapper in every loaded syzlab
module that binds it, so names re-imported with `from .numerics import
quad_periodic` are covered as well as module attributes.  A span records
name, start, end, parent span and report id; spans stay in memory, in
flat arrays, until `summary` aggregates them after the traced run.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# Functions whose calls are recorded, as "module.function" under syzlab.
TRACED = (
    "cli.run", "cli.build_parser",
    "semiflat.sf_form_chart", "semiflat.pair_cycle", "semiflat.ma_residual",
    "semiflat.riemannian_metric_chart", "semiflat.christoffel_fd",
    "semiflat.riemann_fd",
    "numerics.quad_periodic", "numerics.find_root", "numerics.fit_decay",
    "slag.check_special", "slag.second_fundamental_form",
    "calabi.verify_rotation", "calabi.rotate",
    "glue.mass_integral", "glue.q_coefficient", "glue.solve_alpha",
    "glue.harmonic_match", "glue.positivity_scan",
    "fibration.from_ell", "forms.i_half_a_wedge_abar",
)

# The callable passed as first argument to these is traced as "<name>.f",
# so its calls count as evaluations and its time is not the caller's self time.
TRACED_CALLBACKS = ("numerics.quad_periodic", "numerics.find_root")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.report = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.report_id = -1
        # ids of the GlueConfig objects harmonic_match saw, per report
        self.glue_configs: set[tuple[int, int]] = set()
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, callback: str | None = None,
             config_arg: bool = False):
        """Wrap fn so each call records one span named `name`."""
        nid = self._id(name)
        stack = self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            i = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.report.append(self.report_id)
            self.start.append(0.0)
            self.end.append(0.0)
            if callback is not None:
                args = (self.span(callback, args[0]),) + args[1:]
            if config_arg:
                self.glue_configs.add((self.report_id, id(args[0])))
            stack.append(i)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                self.start[i] = t0
                self.end[i] = t1

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if (n == "syzlab" or n.startswith("syzlab.")) and m is not None]
        for target in TRACED:
            mod_name, func = target.split(".")
            orig = getattr(sys.modules["syzlab." + mod_name], func)
            wrapped = self.span(
                target, orig,
                callback=target + ".f" if target in TRACED_CALLBACKS else None,
                config_arg=target == "glue.harmonic_match")
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def counts(self, report_id: int) -> dict[str, int]:
        """Number of spans per name in one report."""
        name = np.frombuffer(self.name, dtype=np.int32)
        report = np.frombuffer(self.report, dtype=np.int32)
        per = np.bincount(name[report == report_id], minlength=len(self.names))
        return {n: int(c) for n, c in zip(self.names, per)}

    def summary(self, scale) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        `scale[r]` takes the times of report r to nominal host speed.
        """
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        report = np.frombuffer(self.report, dtype=np.int32)
        dur = (np.frombuffer(self.end) - np.frombuffer(self.start)) \
            * np.frombuffer(scale)[report]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        incl = np.bincount(name, weights=dur, minlength=n)
        own = np.bincount(name, weights=self_time, minlength=n)
        return {nm: {"calls": int(calls[i]), "s": float(incl[i]),
                     "self_s": float(own[i])}
                for i, nm in enumerate(self.names)}
