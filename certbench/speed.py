"""The processor speed a timed run got, sampled while it runs.

On a shared machine the speed one process gets drifts with the load that
other processes, or other virtual machines on the same host, put on its
processor: by up to about 40 %, in spells that last from milliseconds to
minutes, and much alike for interpreter loops, numpy calls and file I/O.  A
run's wall time carries that drift, and a run of 45 s cannot average out a
spell of minutes.  So while a timed run goes on, a timer signal every
PROBE_INTERVAL_S runs a unit of fixed reference work, which calls no
steinerkit code, twice and times the second, warm one.  ``factor()`` is
REFERENCE_S over the mean unit time: a run's timings multiplied by it are
the times the run would have taken at the reference speed.

The units run in the benchmark's own process, between two bytecodes of the
library's Python code, so they see the speed its interpreter code sees; a
signal waits while a numpy call runs, so long numpy calls go unsampled.
They cost about 1 % of the run.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy

PROBE_INTERVAL_S = 0.25
REFERENCE_S = 0.8e-3
"""Seconds one unit takes at full speed on a 2-core Intel Xeon virtual
machine with Python 3.11.7 and numpy 2.4.6; the scale of the reported
times.  Change it, the unit or PROBE_INTERVAL_S only together with a new
baseline."""

_DATA = numpy.random.default_rng(0).random(1 << 14)


def reference_unit() -> int:
    """Fixed work: interpreter integer arithmetic and a numpy sort."""
    total = 0
    for i in range(12_000):
        total += i * i % 7
    numpy.sort(_DATA)
    return total


class SpeedProbe:
    """Time a reference unit on every timer tick while the block runs."""

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        reference_unit()  # warms the caches the library's work left cold
        start = time.perf_counter()
        reference_unit()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self) -> float:
        """REFERENCE_S over the mean unit time."""
        return REFERENCE_S / statistics.fmean(self.samples)
