"""Times in nominal seconds: wall time scaled by the machine's speed.

The machine this benchmark was built on shares its cores with other tenants,
and identical passes run at one speed or at about half of it, switching
every few seconds to minutes. Raw wall times then spread by 30% between runs
of the same code. So every time the benchmark reports is rescaled to a fixed
nominal speed, measured with a reference loop of exact rational arithmetic,
the kind of work wcoset does:

    nominal seconds = busy seconds * mean(REF_S / r_i)

where r_i are timings of the reference loop taken while the measured work
runs. A timer signal takes a sample every SAMPLE_EVERY seconds, so a switch
of speed inside a pass is weighted by the time it lasted; the samples' own
time is not counted as busy. REF_S is the loop's time on the build machine
(2 vCPU Xeon, Python 3.11) when no other tenant slows it, so nominal seconds
read roughly as that machine's uncontended wall seconds. Raw wall times are
printed beside them.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REF_S = 230e-6
SAMPLE_EVERY = 0.05


def reference() -> Fraction:
    """A fixed piece of exact rational arithmetic; about REF_S seconds."""
    acc, x = Fraction(0), Fraction(3, 7)
    for i in range(1, 60):
        acc = acc * x + Fraction(i, 13)
    return acc


def sample() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def nominal(busy: float, samples) -> float:
    """Busy wall seconds at the speed the samples show, in nominal seconds."""
    return busy * statistics.fmean(REF_S / r for r in samples)


class Speedometer:
    """Times a block and samples the reference loop on a timer signal.

    After the block, `elapsed` is its wall time, `busy` that less the
    samples' own time, and `seconds` the busy time in nominal seconds.
    Use in the main thread.
    """

    def __init__(self):
        self.samples = []

    def _on_timer(self, signum, frame):
        self.samples.append(sample())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.elapsed = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        self.busy = self.elapsed - sum(self.samples)
        if not self.samples:
            self.samples.append(sample())
        self.seconds = nominal(self.busy, self.samples)
        return False
