"""A fixed reference kernel that gauges how fast the host runs right now.

On a shared host the same code runs up to half again slower or faster from
one minute to the next, so raw seconds of runs made minutes apart differ
more than any bound worth setting.  The benchmark times this kernel next to
every timed block and reports each time at the reference speed:

    seconds * REF_S / (median seconds of the kernel measured next to it)

The kernel does, at a fixed size, the three kinds of work the library's
hot paths do: an interpreter loop, many small numpy calls, and dense row
updates as in the simplex pivot.  It never changes with the library.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 0.010    # seconds of one kernel run at the reference speed
REPS = 5         # kernel runs per gauge; their median is the gauge

_TABLEAU = np.random.default_rng(0).random((150, 500))


def kernel():
    total = 0
    for i in range(60_000):
        total += i * i
    a = np.arange(500.0)
    for _ in range(600):
        a = np.sqrt(a * a + 1.0)
    t = _TABLEAU.copy()
    for row in range(0, 150, 15):
        t[row] /= t[row, row]
        for i in range(t.shape[0]):
            if i != row and t[i, row] != 0.0:
                t[i] -= t[i, row] * t[row]
    return total, a, t


def gauge(reps: int = REPS) -> float:
    """Median seconds of `reps` kernel runs."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def at_reference(seconds: float, gauged: float) -> float:
    """`seconds` measured while the kernel took `gauged` seconds, at the
    reference speed."""
    return seconds * REF_S / gauged
