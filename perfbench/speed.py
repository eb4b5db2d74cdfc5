"""A fixed reference task that gauges how fast the machine runs right now.

The benchmark host shares its CPUs with other guests, which slow whole
stretches of a run, tens of seconds long, by up to 2x.  Taking the fastest
or the median op of a run does not remove a slowdown that lasts the whole
run, so the benchmark times :func:`reference` next to every op and every
set-up, and scales each measured time by ``REF_NOMINAL_S`` over the
reference's time around it.  Every reported time therefore reads as if
the machine ran the reference in ``REF_NOMINAL_S``: about its quiet speed.

The reference always runs interpreter work with small numpy calls, as
the library's per-step code does.  For a workload whose time is mostly
whole-grid numpy work (the numeric gap searches), it also runs a part of
that kind, so that the same contention slows it and the workload alike:
on ``numeric_oracle`` the interpreter part alone leaves twice the spread,
and on the per-step workloads the grid part adds spread.  It never calls
into ``jeffreys``, so a change to the library moves the scaled times
fully.
"""

from __future__ import annotations

import time

import numpy as np

REF_ITERATIONS = 200
GRID_REPS = 12
REF_NOMINAL_S = 1e-3      # of one part
_VEC = np.arange(4.0)
# a prediction grid against an outcome grid, as the numeric gap searches use
_PRED = np.linspace(0.0, 1.0, 257)
_OUTCOME = np.linspace(0.0, 1.0, 65)


def reference(grid: bool) -> float:
    """Run the reference task once, with its grid part if ``grid``; return
    its wall time per part in seconds."""
    start = time.perf_counter()
    total = 0.0
    seen = {}
    for i in range(REF_ITERATIONS):
        w = _VEC * (i % 5) + 1.0
        total += float(np.dot(w, _VEC)) + min(i % 7, 3)
        seen[i % 13] = total
    if not grid:
        return time.perf_counter() - start
    for i in range(GRID_REPS):
        gap = (_PRED[:, None] - _OUTCOME[None, :]) ** 2
        total += int(np.argmin(np.max(np.exp(-gap * (i + 1)), axis=1)))
    return (time.perf_counter() - start) / 2.0


def smoothed(ref_s: list, half_width: int = 2) -> list:
    """Mean of each reference time with its ``half_width`` neighbours on
    each side, in run order: one reference call jitters more than the
    machine's speed changes over a few ops."""
    n = len(ref_s)
    out = []
    for k in range(n):
        window = ref_s[max(0, k - half_width):k + half_width + 1]
        out.append(sum(window) / len(window))
    return out
