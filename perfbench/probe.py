"""Host-speed probe: scales the benchmark's timings to a reference host.

The benchmark shares a small VM whose CPU speed drifts by up to 2x
between phases that last from seconds to minutes, while CPU time tracks
wall time (the slowdown is not steal).  A fixed pure-Python kernel,
timed between the measured ops, slows down with the host and not with
the program, so an op's time divided by the kernel's time measured
around it is a property of the program.  Every end-to-end timing is
reported in milliseconds (seconds) of a host on which the kernel takes
:data:`REF_S`; the raw wall-clock figures are printed beside them.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect
from time import perf_counter

#: Kernel time on the reference host.  Scaled timings read as the wall
#: time the op would take on a host that runs the kernel this fast.
REF_S = 2e-3
#: At most one probe per this many seconds, so probing costs ~1 %.
INTERVAL_S = 0.2
#: An op is scaled by the median of this many probes nearest to it.
NEIGHBOURS = 7
#: An open loop probes only when the wait before the next due op
#: exceeds twice the last probe time plus this margin.
MARGIN_S = 2e-3


def kernel() -> float:
    """Fixed pure-Python work of about 2 ms: piecewise-linear lookups,
    float arithmetic and dict traffic, the mix of the curve and engine
    layers.  It imports nothing from the program."""
    segments = [(float(i), 0.5 * i, 1.0 / (i + 1)) for i in range(64)]
    memo: dict[int, float] = {}
    acc = 0.0
    for k in range(1600):
        x = (k * 0.37) % 64.0
        lo, hi = 0, len(segments) - 1
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if segments[mid][0] <= x:
                lo = mid
            else:
                hi = mid - 1
        x0, y0, slope = segments[lo]
        y = y0 + slope * (x - x0)
        memo[k % 211] = memo.get(k % 211, 0.0) + y
        acc += y
    return acc + len(memo)


class SpeedProbe:
    """Kernel times, with the instant each was taken."""

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        self.at: list[float] = []
        self.took: list[float] = []

    def tick(self, budget_s: float = math.inf) -> None:
        """Time the kernel once, unless a probe ran within the interval
        or this one might not fit in *budget_s* seconds."""
        t0 = perf_counter()
        if self.at and t0 - self.at[-1] < self.interval_s:
            return
        last = self.took[-1] if self.took else REF_S
        if budget_s < 2 * last + MARGIN_S:
            return
        kernel()
        t1 = perf_counter()
        self.at.append(t1)
        self.took.append(t1 - t0)

    def factor(self, t: float | None = None) -> float:
        """Scale for a time measured at *t*: :data:`REF_S` over the
        median of the :data:`NEIGHBOURS` probes nearest to it (of every
        probe when *t* is None); 1 before the first probe."""
        if not self.took:
            return 1.0
        window = self.took
        if t is not None:
            i = bisect(self.at, t)
            lo = max(0, min(i - NEIGHBOURS // 2, len(self.at) - NEIGHBOURS))
            window = self.took[lo:lo + NEIGHBOURS]
        return REF_S / statistics.median(window)
