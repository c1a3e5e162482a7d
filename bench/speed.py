"""The machine's speed, sampled while a repetition runs, to scale its times.

On a host shared with other tenants a core's speed swings by up to 1.9x
within seconds, so two runs of the same code can differ by a third in wall
time.  ``Speedometer`` samples that speed inside the timed process: a
``SIGALRM`` interval timer interrupts it every ``PERIOD_S`` and times a
fixed pure-Python loop, between two bytecodes of whatever runs.  A loop
this short slows down with the program (both are single-threaded CPython
on the same core), so ``scaled(a, b)`` turns the measured interval into
the time it takes on the reference core, where the loop takes
``REFERENCE_S``::

    scaled = (b - a - loop time inside [a, b]) * mean(REFERENCE_S / loop)

with each loop time the median of the samples within ``WINDOW_S`` of it,
and a command shorter than one period using the sample nearest to it.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

PERIOD_S = 0.025
WINDOW_S = 0.25
LOOP_N = 1500
# The loop's time on an uncontended core of a 2-vCPU Intel Xeon VM under
# CPython 3.11: scaled times are seconds on that core.
REFERENCE_S = 2.0e-4


def _loop() -> int:
    acc, table = 0, {}
    for i in range(LOOP_N):
        acc += i * i % 7
        table[i & 255] = acc ^ (acc >> 3)
    return acc


class Speedometer:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.loops: list[float] = []
        self._smooth: list[float] | None = None

    def _sample(self, _signum, _frame) -> None:
        start = perf_counter()
        _loop()
        self.starts.append(start)
        self.loops.append(perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _smoothed(self) -> list[float]:
        if self._smooth is None:
            starts, loops = self.starts, self.loops
            self._smooth = [
                statistics.median(loops[bisect_left(starts, t - WINDOW_S) : bisect_right(starts, t + WINDOW_S)])
                for t in starts
            ]
        return self._smooth

    def scaled(self, a: float, b: float) -> float:
        """Seconds that [a, b] of this process take on the reference core."""
        smooth = self._smoothed()
        if not smooth:
            raise RuntimeError("no speed samples: stop() was called before the first period ended")
        lo, hi = bisect_left(self.starts, a), bisect_left(self.starts, b)
        own = sum(self.loops[lo:hi])
        if hi > lo:
            ratio = statistics.fmean(REFERENCE_S / loop for loop in smooth[lo:hi])
        else:
            near = min(max(lo, 0), len(smooth) - 1)
            if near > 0 and a - self.starts[near - 1] < self.starts[near] - b:
                near -= 1
            ratio = REFERENCE_S / smooth[near]
        return (b - a - own) * ratio

    def slowdown(self) -> float:
        """Median loop time over the reference, for the record."""
        return statistics.median(self.loops) / REFERENCE_S
