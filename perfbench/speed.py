"""The host's speed, measured next to and during each timed piece of work.

The benchmark runs on a few cores of a shared host whose neighbours slow
it down by up to 2x, switching within a second or holding for minutes, and
the slowdown is spent on the CPU, so CPU time moves with wall time.
``probe()`` times a fixed piece of work that does not touch ``mimdp``:
interpreted Python, exact ``Fraction`` arithmetic and small dense linear
algebra, the mix the library spends its time in.  ``Gauge`` takes a probe
before a timed piece of work, one every ``SAMPLE_EVERY_S`` while it runs
(from a timer signal, between two bytecodes of the work) and one after it.
The probes' own time is taken out of the measured time.  A time ``t``
measured with probes averaging ``p`` seconds is reported as
``t * REFERENCE_PROBE_S / p``: the time the work would take on a host where
the probe takes ``REFERENCE_PROBE_S``.  A faster or slower program moves
that figure; a faster or slower host does not.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

import numpy

# the probe's time on a 2-vCPU Xeon VM when no neighbour slows it down, so
# the reported times are close to wall-clock times on that VM at its best
REFERENCE_PROBE_S = 0.0016
# a probe between two pieces of work is the median of this many timings
PROBE_REPEATS = 3
# work that starts within this long of the last probe shares it
PROBE_EVERY_S = 0.2
# while work runs, one timing of the calibration work this often
SAMPLE_EVERY_S = 0.1


def _calibration_work():
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(i, 7) * Fraction(3, i + 2)
    counts = {}
    for i in range(3000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    m = numpy.ones((30, 30))
    for _ in range(30):
        m = m @ m / m.sum()
    return acc, counts, m


def _timed_calibration() -> float:
    t = time.perf_counter()
    _calibration_work()
    return time.perf_counter() - t


def probe() -> float:
    """Seconds the calibration work takes now (median of a few timings)."""
    times = sorted(_timed_calibration() for _ in range(PROBE_REPEATS))
    return times[PROBE_REPEATS // 2]


class Gauge:
    """Times pieces of work at reference speed: ``start()`` before one,
    ``stop()`` after it returns (seconds measured, scale factor)."""

    def __init__(self):
        for _ in range(10):  # warm-up: caches, lazy imports, CPU clock
            probe()
        self.at = -float("inf")
        self.last = None
        self.probes = []
        self.samples = []
        self.stolen = 0.0
        self.armed = False
        signal.signal(signal.SIGALRM, self._sample)

    def _take(self) -> float:
        self.last = probe()
        self.at = time.perf_counter()
        self.probes.append(self.last)
        return self.last

    def _sample(self, signum, frame) -> None:
        if not self.armed:  # a signal that was pending when the work ended
            return
        t = time.perf_counter()
        self.samples.append(_timed_calibration())
        self.stolen += time.perf_counter() - t

    def start(self) -> None:
        if time.perf_counter() - self.at > PROBE_EVERY_S:
            self._take()
        self.samples = [self.last]
        self.stolen = 0.0
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self.t0 = time.perf_counter()

    def stop(self):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - self.t0 - self.stolen
        if seconds > PROBE_EVERY_S:
            self.samples.append(self._take())
        return seconds, REFERENCE_PROBE_S * len(self.samples) / sum(self.samples)
