"""Machine-speed probe for the benchmark.

The machine where the benchmark was written, a shared virtual machine with
2 vCPUs of a 2.0 GHz Intel Xeon, flips between a fast and a slow state
every few seconds, for all code alike.  A single long instance can span
several flips.  The probe walks a fixed graph that does not touch
outersplit, from a SIGALRM handler every INTERVAL_S of wall time, so every
timed interval has speed samples taken during or right next to it.  Over
3 s windows, the instance time divided by the walk time stayed within 3%
(coefficient of variation) while the raw instance time varied by 10%.

scaled() turns a wall-clock interval into reference seconds: the wall time
minus the probe's own walks, times the mean of REFERENCE_S / walk time
over the walks during and next to it.  That is the time the interval would
take on a machine where one walk takes REFERENCE_S.

Only the standard library is imported here, so the set-up timer can start
before this module is used.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

INTERVAL_S = 0.05
# Typical walk time on the machine named above, in its fast state.
REFERENCE_S = 0.00033

_ADJ = {i: tuple((i * 7 + k) % 500 for k in range(6)) for i in range(500)}


def reference_walk() -> float:
    """Seconds taken by one depth-first walk of a fixed 500-node graph."""
    t0 = perf_counter()
    seen: set[int] = set()
    order = []
    for s in _ADJ:
        if s in seen:
            continue
        seen.add(s)
        stack = [s]
        while stack:
            v = stack.pop()
            order.append(v)
            for u in _ADJ[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
    if len(tuple(sorted((v, _ADJ[v][0]) for v in order))) != len(_ADJ):
        raise AssertionError("reference walk missed nodes")
    return perf_counter() - t0


class SpeedProbe:
    """Speed samples taken every INTERVAL_S while the probe is entered."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.walks: list[float] = []
        self._old_handler = None

    def _tick(self, signum=None, frame=None) -> None:
        # The first walk brings its data back into the caches the program
        # just used, so the timed second walk sees the machine's speed
        # rather than how much cache the program happens to evict.
        start = perf_counter()
        reference_walk()
        self.walks.append(reference_walk())
        self.starts.append(start)
        self.ends.append(perf_counter())

    def __enter__(self) -> "SpeedProbe":
        self._tick()
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._tick()

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds of the wall-clock interval [start, end]."""
        lo = bisect_left(self.starts, start)
        hi = bisect_right(self.starts, end)
        own = sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        near = self.walks[max(lo - 1, 0):hi + 1]
        # Samples are evenly spaced in time, so the mean speed over the
        # interval is the mean of REFERENCE_S / walk, not its reciprocal.
        speed = REFERENCE_S * statistics.fmean(1 / w for w in near)
        return (end - start - own) * speed

    @property
    def factor(self) -> float:
        """REFERENCE_S over the median walk: above 1 on a fast run."""
        return REFERENCE_S / statistics.median(self.walks)
