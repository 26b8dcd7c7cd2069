"""A fixed reference kernel that tracks how fast the host runs right now.

The host shares its cores with other tenants, and its speed drifts by
+-25 % for seconds to minutes at a time (the same loop of Python code
takes 0.18 s in one second and 0.29 s in the next, with no stolen time
reported).  A run times this kernel between its timed calls and divides
each call's latency by the slowdown the kernel saw next to it, so that
latencies are expressed at one nominal host speed.

The kernel has two parts, timed apart: a serial part (interpreter loops,
float formatting, small numpy matrix products) and a parallel part (a
trace-sized matrix product that BLAS runs on every core).  The second
core is taken by other tenants at other times than the first, so each
workload weighs the two slowdowns by the share of its call time that runs
on both cores (``parallel_share``; each workload says how it was
measured).  The kernel never calls the program, so no change in the
program can change it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: seconds the two parts take on a quiet 2-vCPU Intel Xeon host
SERIAL_NOMINAL_S = 0.007
PARALLEL_NOMINAL_S = 0.003
#: share of the timed calls' time spent timing the kernel between them
SHARE = 0.1

_RNG = np.random.default_rng(12345)
_ROWS = _RNG.normal(0.0, 1.0, (300, 12))
_M = _RNG.normal(0.0, 0.3, (6, 6))
_TRACE = _RNG.normal(0.0, 1.0, (5001, 50))
_STEP = _RNG.normal(0.0, 0.1, (50, 50))


def _serial() -> float:
    text = "\n".join(",".join(f"{v:.17g}" for v in row) for row in _ROWS)
    acc = 0
    for i in range(20000):
        acc += (i * i) % 7
    a = np.eye(6)
    for _ in range(400):
        a = a @ _M
        a /= np.abs(a).max()
    return len(text) + acc + float(a[0, 0])


def _parallel() -> float:
    b = _TRACE
    for _ in range(2):
        b = b @ _STEP.T
    return float(b[0, 0])


class Reference:
    """Kernel times of one run, and the host slowdown they show.

    The kernel is timed in a gap before each timed interval and once more
    after the last, each gap lasting a fixed share of the interval before
    it.  An interval's latency sums the host's speed over the interval,
    bursts of load included, so each gap's kernel times are averaged, and
    an interval is scaled by the mean slowdown of the gaps on its two
    sides.
    """

    def __init__(self):
        self.serial: list[float] = []
        self.parallel: list[float] = []
        self.gaps: list[tuple[float, float]] = []

    def sample(self, seconds: float = 0.0) -> None:
        """One gap: time the kernel, at least once and until ``seconds``
        have passed."""
        first = len(self.serial)
        end = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            _serial()
            mid = time.perf_counter()
            _parallel()
            now = time.perf_counter()
            self.serial.append(mid - start)
            self.parallel.append(now - mid)
            if now >= end:
                break
        self.gaps.append((statistics.fmean(self.serial[first:]),
                          statistics.fmean(self.parallel[first:])))

    def slowdowns(self, parallel_share: float) -> list[float]:
        """Per gap, how much longer than at nominal speed work took there,
        when ``parallel_share`` of its time runs on both cores."""
        return [(1.0 - parallel_share) * serial / SERIAL_NOMINAL_S
                + parallel_share * parallel / PARALLEL_NOMINAL_S
                for serial, parallel in self.gaps]

    def scale(self, times: list[float], parallel_share: float) -> list[float]:
        """``times[i]``, measured between gaps i and i + 1, at nominal speed."""
        slow = self.slowdowns(parallel_share)
        if len(slow) != len(times) + 1:
            raise ValueError(f"{len(times)} intervals need {len(times) + 1} gaps, not {len(slow)}")
        return [t * 2.0 / (before + after) for t, before, after in zip(times, slow, slow[1:])]

    def summary(self) -> dict | None:
        if not self.serial:
            return None
        return {"gaps": len(self.gaps), "samples": len(self.serial),
                "serial_median_s": statistics.median(self.serial),
                "parallel_median_s": statistics.median(self.parallel)}
