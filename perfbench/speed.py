"""How fast the machine runs right now, sampled while the benchmark runs.

On a shared host the same work can take 1.5x longer for minutes at a time,
because other tenants load the cores, and no amount of repetition inside one
run averages that away.  ``SpeedMeter`` times a fixed reference kernel --
sparse polynomial products over the rationals in plain Python, the kind of
work the program does, but none of its code -- from a profiling-timer signal
every ``PERIOD_S`` of CPU time, in the main thread, for the whole
measurement.  ``reference_seconds(start, end)`` converts a wall interval to
seconds at the reference speed: the interval, less the sampling itself,
times ``REFERENCE_S`` over the geometric mean of the kernel times sampled in
and around it.  Times reported that way stay comparable between runs made at
different moments; the raw wall times are printed next to them.
"""

from __future__ import annotations

import bisect
import math
import signal
from fractions import Fraction
from time import perf_counter

# kernel time that defines the reference speed: an unloaded 2-vCPU Xeon host
REFERENCE_S = 0.0006
PERIOD_S = 0.2
# a window with fewer samples is widened to its nearest neighbours
MIN_SAMPLES = 5

_P = {(i, j): Fraction(i + 2 * j + 1, j + 3) for i in range(4) for j in range(4) if i + j < 5}
_Q = {(j, i): Fraction(2 * i - j, i + 2) for i in range(4) for j in range(4) if i + j < 5}


def reference_kernel():
    """A sparse polynomial product over the rationals, in plain Python."""
    product = {}
    for (a, b), x in _P.items():
        for (c, d), y in _Q.items():
            key = (a + c, b + d)
            product[key] = product.get(key, 0) + x * y
    return product


class SpeedMeter:
    def __init__(self, period_s=PERIOD_S):
        self.period_s = period_s
        self.starts = []
        self.times = []
        self._logs = []
        self._previous = None

    def _sample(self, signum, frame):
        start = perf_counter()
        reference_kernel()
        elapsed = perf_counter() - start
        self.starts.append(start)
        self.times.append(elapsed)
        self._logs.append(math.log(elapsed))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    def speed(self, lo=0, hi=None):
        """REFERENCE_S over the geometric mean of samples lo..hi."""
        logs = self._logs[lo:hi]
        if not logs:
            return 1.0
        return REFERENCE_S / math.exp(sum(logs) / len(logs))

    def reference_seconds(self, start, end):
        """The wall interval [start, end], less sampling, at reference speed."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        inside = sum(self.times[lo:hi])
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        return (end - start - inside) * self.speed(lo, hi)
