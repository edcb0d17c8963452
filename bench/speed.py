"""Machine-speed probe: a fixed mpmath computation, timed between ops.

On a shared virtual machine the same code runs up to 25% slower or faster
for stretches of seconds to minutes, whatever the benchmark does.  The
benchmark therefore reports its times in reference seconds: the measured
time times REFERENCE_S over the median probe time around it.  The probe uses
only mpmath and never calls pfrac, so a change to pfrac moves the reported
times as it moves the measured ones.
"""

from __future__ import annotations

import statistics
import time

from mpmath import mp, mpf

#: median probe time on the reference machine: a 2-vCPU Intel Xeon virtual
#: machine, Python 3.11.7, mpmath 1.3.0 on its pure-Python backend
REFERENCE_S = 0.025
INTERVAL_S = 0.25  # least time between two probes of a run


def probe_once() -> float:
    """Seconds taken by 600 logarithms and sines at 256 bits.

    Calls the context methods, not the module functions that a traced run
    counts, so tracing leaves the probe alone.  The first call in a process
    also computes mpmath's constants and is slower."""
    start = time.perf_counter()
    with mp.workprec(256):
        x = mpf(0)
        for i in range(1, 600):
            x += mp.log(2 * mp.sin(mpf(i) / 600))
    return time.perf_counter() - start


class SpeedProbe:
    """Probe samples; `maybe` takes one at most once per `interval` seconds."""

    def __init__(self, interval: float = INTERVAL_S, probe=probe_once,
                 clock=time.perf_counter):
        self.interval = interval
        self.probe = probe
        self.clock = clock
        self.samples: list[float] = []
        self._last = float("-inf")

    def maybe(self) -> None:
        if self.clock() - self._last >= self.interval:
            self.samples.append(self.probe())
            self._last = self.clock()

    def take(self, n: int) -> None:
        self.samples += [self.probe() for _ in range(n)]

    def scale(self) -> float:
        """Reference seconds per measured second."""
        return REFERENCE_S / statistics.median(self.samples)
