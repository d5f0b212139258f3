"""Machine-speed sampling, to report wall times at a steady reference speed.

On a shared host, other tenants change the speed of every CPU by up to 2x,
in stretches from a fraction of a second to minutes. Raw wall times of
identical runs then spread wider than any regression bound. While a timed
run is in progress, :class:`SpeedSampler` times a small fixed kernel from a
timer signal every :data:`PERIOD_S`; the kernel slows down with the host, so
a wall time multiplied by :meth:`SpeedSampler.scale` over the same interval
is the wall time at the speed at which the kernel takes
:data:`REFERENCE_KERNEL_NS`. The kernel uses nothing from ``src/`` and runs
with the garbage collector paused, so a collection of the program's heap
never lands inside a sample: the program's own costs, its collections
included, stay in the scaled times.
"""

from __future__ import annotations

import dataclasses
import gc
import signal
import time
from array import array
from bisect import bisect_left

import numpy as np

#: Kernel time the scaled figures refer to: about the median on the 2-CPU
#: host the bounds were set on (Python 3.11, numpy 2.4).
REFERENCE_KERNEL_NS = 250_000.0
#: Seconds between two kernel samples (the kernel costs about 0.5 % of it).
PERIOD_S = 0.05
#: Fewest samples an interval is scaled by; shorter intervals borrow the
#: samples nearest to them.
MIN_SAMPLES = 5
#: A sample counts as at most this many times the median of all samples.
#: The two CPU speeds differ by less than 2x; a sample that a descheduling
#: stretched ten times or more would otherwise decide its interval alone.
CAP = 2.0


@dataclasses.dataclass(frozen=True)
class _Point:
    x: float
    y: float


def _step(x: float, y: float) -> _Point:
    return _Point(x * 0.5, y + 1.0)


def reference_kernel() -> float:
    """Fixed interpreter work like the program's: calls, small frozen
    dataclasses, dict stores and small numpy reductions."""
    table = {}
    acc = 0.0
    vec = np.arange(8, dtype=float)
    for i in range(150):
        point = _step(float(i), acc)
        table[i & 63] = point
        acc = (acc + point.x * 1e-6) % 7.0
        if i % 16 == 0:
            acc += float(vec.sum())
    return acc


class SpeedSampler:
    """Times :func:`reference_kernel` from ``SIGALRM`` while it is entered.

    Signal handlers run in the main thread between bytecodes, so each
    sample sees the speed the program sees at that moment.
    """

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        #: Start (``perf_counter_ns``) and duration of every sample.
        self.at = array("q")
        self.kernel_ns = array("q")
        self._previous = None

    def _sample(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter_ns()
            reference_kernel()
            self.kernel_ns.append(time.perf_counter_ns() - start)
            self.at.append(start)
        finally:
            if enabled:
                gc.enable()

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start_ns: int, end_ns: int) -> float:
        """Reference over mean kernel time, over the samples in the interval.

        An interval with fewer than :data:`MIN_SAMPLES` samples uses the
        ``MIN_SAMPLES`` samples nearest to its middle. The mean, not the
        median: the process moves between CPUs of different speed, so the
        kernel times have two modes, and the program's wall time grows with
        the share of time spent in each. A median snaps to one mode.
        Each sample is capped at :data:`CAP` times the median of all samples.
        """
        count = len(self.at)
        if count < MIN_SAMPLES:
            raise RuntimeError(f"only {count} speed samples were taken")
        lo = bisect_left(self.at, start_ns)
        hi = bisect_left(self.at, end_ns)
        if hi - lo < MIN_SAMPLES:
            middle = bisect_left(self.at, (start_ns + end_ns) // 2)
            lo = max(0, min(middle - MIN_SAMPLES // 2, count - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        samples = np.frombuffer(self.kernel_ns, dtype=np.int64)
        cap = CAP * np.median(samples)
        return REFERENCE_KERNEL_NS * (hi - lo) / float(np.minimum(samples[lo:hi], cap).sum())
