"""A fixed reference kernel that gauges how fast the host runs right now.

On a shared 2-core VM the same command can take 1.6-2x longer while a
neighbour is busy, in stretches from under a second to minutes. CPU time
does not help: the process is charged for the slow cycles too. So the
benchmark times this kernel just before and just after every command and
scales the command's wall time to the host's fast state::

    scaled_s = wall_s * REFERENCE_S / mean(gauge before, gauge after)

The kernel uses numpy and json only, never trajkit, so a change to trajkit
cannot move it; a change that makes trajkit faster shows in ``wall_s`` and
so in ``scaled_s`` in full.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# The gauge's reading in the fast state of the 2-core 2.0 GHz Xeon VM on
# which the bounds in BENCHMARK.json were set. It only fixes the unit:
# scaled seconds read as seconds of that machine when nobody else is busy.
REFERENCE_S = 0.0018
REPEATS = 7

_A = np.random.default_rng(0).normal(size=(64, 128))
_B = np.random.default_rng(1).normal(size=(128, 48))


def _kernel() -> None:
    """Small matrix products and JSON round trips, as in trajkit's hot paths."""
    rows = []
    for i in range(30):
        s = _A @ _B
        s /= np.linalg.norm(s, axis=1, keepdims=True)
        rows.append({"i": i, "best": int(s.argmax()), "v": [float(x) for x in s[0, :16]]})
    json.loads(json.dumps(rows))


def gauge() -> float:
    """Median seconds of one kernel run, over a few back-to-back runs."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaled(wall_s: float, before: float, after: float) -> float:
    return wall_s * REFERENCE_S / ((before + after) / 2)
