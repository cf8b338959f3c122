"""Machine-speed probe that normalises timings on a shared host.

On a shared virtual machine the same pure-Python job can take anywhere
from 1x to 2x its fastest time, depending on what neighbouring tenants
run; the slow and fast phases last seconds to tens of minutes, so a run
cannot average them out.  The benchmark therefore runs this fixed probe
(a compute loop and a scattered dict build over a few MB) before and
after every timed job, and scales the job's wall time by
``(PROBE_NOMINAL_S / probe time) ** sensitivity``.  Timings read as
seconds on a machine where the probe takes ``PROBE_NOMINAL_S``; the raw
wall times are kept in the run record beside them.  The probe does not
touch cloudq, so a change to the program moves the normalised times
exactly as it moves raw ones.
"""

from __future__ import annotations

import time

# probe time on the 2-vCPU Xeon host the benchmark was calibrated on,
# taken so that normalised and raw seconds agree there on average
PROBE_NOMINAL_S = 0.012
# How strongly each workload's raw time follows the probe: the slope of
# log raw batch time on log probe factor over ten runs per workload at the
# commit that introduced the benchmark (-0.8, -1.09 and -1.22 over factor
# ranges 0.95-1.10, 0.86-1.18 and 0.87-1.33), rounded towards 1.
SENSITIVITY = {"reference": 1.0, "exact": 1.1, "circuit": 1.2}
_TABLE_SIZE = 1 << 16
_LOOP = 40_000


class SpeedProbe:
    """Times the fixed probe; ``factor`` turns raw seconds into nominal ones."""

    def __init__(self, workload: str) -> None:
        self._table = list(range(_TABLE_SIZE))
        self._sensitivity = SENSITIVITY[workload]

    def sample(self) -> float:
        table = self._table
        start = time.perf_counter()
        acc = 0
        for i in range(_LOOP):
            acc += i * i % 7
        scattered = {}
        for i in range(0, _TABLE_SIZE, 3):
            scattered[table[(i * 7919) % _TABLE_SIZE]] = acc
        return time.perf_counter() - start

    def factor(self, before: float, after: float) -> float:
        return (PROBE_NOMINAL_S / ((before + after) / 2)) ** self._sensitivity
