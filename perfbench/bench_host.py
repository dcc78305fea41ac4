"""Host-speed calibration for the wall-clock metrics.

A shared host changes speed by tens of percent over minutes as other
tenants come and go, which moves every wall-clock number of a run
together.  Before each episode the runner times this fixed loop — plain
Python dict updates plus numpy sort, search, slicing and concatenation,
no program code — and scales the run's wall-clock metrics by
``REFERENCE_S / median(samples)``: each time is reported as it would
read on a host running the loop in ``REFERENCE_S``.  A change to the
program moves the scaled numbers; a change in host load mostly does not.
The raw numbers and the calibration are kept in the run's notes.
"""

from __future__ import annotations

import time

import numpy as np

#: Median calibration time on the reference host (2 vCPUs at 2.1 GHz,
#: Python 3.11, numpy 2.4).
REFERENCE_S = 0.05

_RNG = np.random.default_rng(12345)
_KEYS = _RNG.integers(0, 1 << 40, 1 << 16)
_PROBES = _RNG.integers(0, 1 << 40, 4096)


def calibrate() -> float:
    """Seconds one pass of the fixed calibration loop takes now."""
    t0 = time.perf_counter()
    for _ in range(20):
        table: dict[int, int] = {}
        for i in range(4000):
            table[i & 511] = table.get(i & 511, 0) + i
        ordered = np.sort(_KEYS)
        pos = np.searchsorted(ordered, _PROBES)
        merged = np.concatenate([ordered[p : p + 64] for p in pos[:256].tolist()])
        merged[np.argsort(merged, kind="stable")]
    return time.perf_counter() - t0
