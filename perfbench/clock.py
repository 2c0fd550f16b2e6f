"""Timing in reference-core seconds.

The cores this benchmark shares change speed by 20 % and more within
seconds, so raw times of identical runs spread wider than a useful
regression bound.  ``Clock`` interrupts the process every ``PERIOD_S``
seconds (SIGALRM) and times one of two fixed kernels that do not touch the
program under test, in turn: an interpreter-bound loop and a run of small
numpy calls, the two kinds of work groupchar does.  ``now()`` excludes the
time spent in those samples.  ``scaled(start, end)`` converts an interval
into seconds on a reference core: it divides by the geometric mean, over
the two kernels, of the median sample within ``WINDOW_S`` of the interval
over ``REFERENCE_S``.  On a shared 2-core VM this cut the
spread of repeated runs (interquartile range over median) from 19-37 % to
2-14 %, depending on workload and metric.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
WINDOW_S = 1.0
REFERENCE_S = 2.0e-3  # each kernel's time on the reference core

_M = np.arange(576).reshape(24, 24) * 37 % 97
_I = np.arange(24) * 7 % 24


def _python_kernel() -> int:
    s = 0
    for i in range(20000):
        s += i * i % 7
    return s


def _numpy_kernel() -> int:
    s = 0
    for _ in range(40):
        block = _M[np.ix_(_I[:12], _I[12:])]
        s += int(np.unique(block).size) + int((_M @ _M % 97)[0, 0])
        s += int(np.count_nonzero(_M[0] > 50))
    return s


KERNELS = (_python_kernel, _numpy_kernel)


class Clock:
    def __init__(self):
        # per kernel: now() at each sample (increasing) and the sample's seconds
        self.stamps: list[list[float]] = [[] for _ in KERNELS]
        self.kernel_s: list[list[float]] = [[] for _ in KERNELS]
        self.busy = 0.0
        self.count = 0

    def _sample(self, signum, frame) -> None:
        k = self.count % len(KERNELS)
        self.count += 1
        start = time.perf_counter()
        KERNELS[k]()
        spent = time.perf_counter() - start
        self.stamps[k].append(start - self.busy)
        self.kernel_s[k].append(spent)
        self.busy += spent

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        """Seconds, not counting time spent sampling."""
        while True:
            busy = self.busy
            t = time.perf_counter()
            if busy == self.busy:  # no sample landed in between
                return t - busy

    def scaled(self, start: float, end: float) -> float:
        """Reference-core seconds of the interval [start, end] of now()."""
        slowdown = 1.0
        for stamps, times in zip(self.stamps, self.kernel_s):
            lo = bisect.bisect_left(stamps, start - WINDOW_S)
            hi = bisect.bisect_right(stamps, end + WINDOW_S)
            slowdown *= statistics.median(times[lo:hi] or times) / REFERENCE_S
        return (end - start) / slowdown ** (1 / len(KERNELS))
