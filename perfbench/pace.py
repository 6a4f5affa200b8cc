"""Machine pace: a fixed reference workload timed next to every timed step.

On a small shared machine the CPU this benchmark gets runs at two speeds,
and switches between them every few seconds as other tenants come and go:
the reference below takes about 45 ms in the fast state and 65 ms in the
slow one, and more when a neighbour is busiest. A run's median then
depends more on how long the machine sat in each state than on the
program. So every timed step is bracketed by two reference timings, and
the benchmark reports the step's time at a fixed pace:

    paced = raw * NOMINAL_S / mean(reference before, reference after)

i.e. the seconds the step would take on a machine where the reference takes
``NOMINAL_S``. The reference mixes the kinds of work the pipeline does:
Python-level float formatting, hashing and NumPy array arithmetic. It does
not touch ``oplearn``, so no change to the program moves it.
"""

from __future__ import annotations

import hashlib
import statistics
import time

import numpy as np

NOMINAL_S = 0.05

_FLOATS = [i * 1.2345678901 for i in range(8_000)]
_BLOB = bytes(range(256)) * 8_192
_X = np.linspace(-1.0, 1.0, 400_000).reshape(40_000, 10)
_W = np.linspace(0.5, -0.5, 10)


def reference() -> float:
    """Wall seconds of one pass of the fixed reference workload (no BLAS
    call, so the runner's thread settings do not matter)."""
    start = time.perf_counter()
    for _ in range(4):
        text = ",".join(map(repr, _FLOATS))
        hashlib.sha256(_BLOB + text.encode()).digest()
        z = (_X * _W).sum(axis=1)
        np.exp(z - z.max()).sum()
    return time.perf_counter() - start


def paced(raw: float, before: float, after: float) -> float:
    return raw * NOMINAL_S / statistics.fmean((before, after))
