"""Host-speed reference: a fixed kernel timed next to every measurement.

On a small shared host the speed of one thread changes by up to about
2x within seconds, as other tenants come and go on the same cores, and
such a change moves a syzlab report and this kernel alike.  Every time the
benchmark reports is therefore scaled to nominal host speed:

    measured seconds * NOMINAL_S / kernel seconds timed right next to it

The kernel is a scalar Python loop followed by small-array numpy calls,
the two kinds of work syzlab's per-point code does; a slow phase slows the
two by different amounts (1.6x and 2.1x between the 5th and 95th
percentile on a 2-vCPU VM), so the kernel runs both, in about the share
that kept the scaled times of both the glue and the finite-difference
workloads steady there.  It calls nothing in syzlab, so no change to the
program can move it.  NOMINAL_S is its typical time on the host the
benchmark was defined on; it only sets the scale of the reported times.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 1.0e-3
_PY_STEPS = 6000
_NP_STEPS = 400


def reference_s() -> float:
    """Seconds one run of the reference kernel takes now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(_PY_STEPS):
        s += i * i % 7
    a = np.arange(64.0)
    for _ in range(_NP_STEPS):
        a = np.sqrt(a + 1.0) * 1.0001
    return time.perf_counter() - t0


def scale(reference_before: float, reference_after: float) -> float:
    """Factor that takes a time measured between two kernel runs to nominal speed."""
    return 2.0 * NOMINAL_S / (reference_before + reference_after)
