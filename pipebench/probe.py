"""Core-speed probe: rescales measured times to a fixed reference core speed.

On a machine shared with other virtual machines the speed of our core
changes by up to 1.7x within seconds (contention on the physical core, no
steal time reported), so raw pass times of identical work spread by 15-30%
between runs.  While installed, the probe runs a fixed pure-Python loop from
a SIGALRM handler every ``interval`` seconds, interleaved with the work being
timed.  The loop's duration d at each sample gives the core speed at that
moment relative to the reference, REFERENCE_S / d, and the mean of that
ratio over a timed interval is the share of reference-speed work the
interval contained.  ``raw seconds * factor()`` is therefore the time the
same work takes at reference speed.

The loop has the shape of the program's hot code (p-adic valuations by
repeated division through small function calls, as in arith.valuation),
because its slowdown under contention tracks the workloads': fitting log
pass time against log probe slowdown over a 1.9x range of contention gave
slopes of 0.86 (oracle) and 1.09 (export), against 1.30 and 1.59 for a
plain arithmetic loop, which under-corrects.  The probe's loop is frozen
here so that a change to the program does not move the reference.

The reference is the loop's duration on an uncontended core of a 2-vCPU
Intel Xeon virtual machine.  The probe adds about 0.5% to the timed work at
the default interval, equally on every commit.
"""

from __future__ import annotations

import signal
import statistics
import time

REFERENCE_S = 30e-6


def _valuation(p: int, n: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def _loop() -> int:
    total = 0
    for n in range(1, 40):
        total += min(_valuation(3, n * 81), _valuation(7, n * 49))
    return total


class SpeedProbe:
    """Samples the core speed every ``interval`` seconds while installed.

    Only one probe may be installed at a time, in the main thread.
    """

    def __init__(self, interval: float = 0.005) -> None:
        self.interval = interval
        self._ratios: list[float] = []
        self._previous = None

    def _sample(self, *_args) -> None:
        start = time.perf_counter()
        _loop()
        self._ratios.append(REFERENCE_S / (time.perf_counter() - start))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """Mean speed ratio since the last call; an interval too short for a
        timer sample gets one explicit sample."""
        if not self._ratios:
            self._sample()
        ratios, self._ratios = self._ratios, []
        return statistics.fmean(ratios)
