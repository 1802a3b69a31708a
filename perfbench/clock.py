"""Reference-speed clock.

On a shared host other workloads run on the same cores, and their load slows
every instruction by up to ~2x for seconds to minutes at a time. Wall times
taken minutes apart therefore differ by more than any change worth
measuring. To separate the program's cost from the machine's state, the
runner times a fixed probe between operations (at least every
`PROBE_EVERY_S`) and rescales each operation's wall time by
`REFERENCE_PROBE_S / probe`, with `probe` the median of the probes within
`WINDOW_S` of the operation. Every time metric is reported in these
reference-speed seconds; raw wall times go to the run's report alongside.

The probe mixes the four kinds of work the package does: an interpreter
loop, small numpy calls, vectorised numpy over a few thousand samples and
dense linear algebra. Its value is the geometric mean of the part times.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

# Probe duration on an uncontended core of the machine the benchmark was
# calibrated on (2-core Xeon at 2.1 GHz, numpy 2.4, OpenBLAS 0.3.31).
REFERENCE_PROBE_S = 7.0e-5
PROBE_EVERY_S = 0.025
WINDOW_S = 0.5

_LONG = np.arange(2048.0)
_SHORT = _LONG[:54]
_SQUARE = np.cos(np.arange(96.0 * 96.0)).reshape(96, 96)


def probe() -> float:
    t0 = perf_counter()
    s = 0
    for i in range(800):
        s += i * i
    t1 = perf_counter()
    for _ in range(30):
        np.abs(_SHORT).sum()
    t2 = perf_counter()
    for _ in range(3):
        float(np.dot(np.cos(_LONG), _LONG))
    t3 = perf_counter()
    for _ in range(2):
        _SQUARE @ _SQUARE
    t4 = perf_counter()
    return ((t1 - t0) * (t2 - t1) * (t3 - t2) * (t4 - t3)) ** (1 / 4)


class Clock:
    """Probe series of one process and the rescaling derived from it."""

    def __init__(self):
        self.times: list[float] = []
        self.values: list[float] = []
        probe()  # the first call pays for numpy's lazy set-up; keep it out

    def tick(self, force: bool = False) -> None:
        """Probe if `PROBE_EVERY_S` has passed since the last probe."""
        now = perf_counter()
        if force or not self.times or now - self.times[-1] >= PROBE_EVERY_S:
            self.times.append(now)
            self.values.append(probe())

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per wall second for an interval."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.values[lo:hi]
        if len(near) < 3:
            i = bisect.bisect_left(self.times, start)
            near = self.values[max(0, i - 2):i + 2]
        return REFERENCE_PROBE_S / statistics.median(near)
