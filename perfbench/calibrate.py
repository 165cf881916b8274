"""CPU-speed calibration for timings on a host whose speed drifts.

On a shared host the CPU a run gets changes speed by up to 2x, from one
fraction of a second to the next, as other tenants load it; process CPU
time drifts with it.  A fixed loop with the instruction mix of the package
(Fraction arithmetic, small dicts and tuples, small numpy calls), timed
often during the op as well as around it, measures the speed the op saw.
``Sampler`` times the loop from a SIGALRM handler every ``INTERVAL_S``, and
``scaled`` converts an op's duration, less the handler's own time, to the
duration at the reference speed, at which the loop takes ``REFERENCE_S``.
Both commits of a comparison are scaled by the same loop, so a change in the
program still shows in full.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

# the loop's median time on the reference machine (2-vCPU Xeon, Python 3.11)
REFERENCE_S = 0.25e-3
INTERVAL_S = 0.02
_EYE = np.eye(4)
_ONES = np.ones((4, 4))


def loop_seconds() -> float:
    start = perf_counter()
    total = Fraction(0)
    for i in range(20):
        total += Fraction(i, 7 + i % 5)
    table = {i: (i, str(i)) for i in range(75)}
    sum(len(v[1]) for v in table.values())
    for _ in range(3):
        np.abs(np.kron(_EYE, _ONES) - 1.0).max()
    return perf_counter() - start


class Sampler:
    """Loop timings taken on a timer while it is entered, and on demand."""

    def __init__(self):
        self.starts = []
        self.durations = []

    def sample(self) -> None:
        start = perf_counter()
        duration = loop_seconds()
        self.starts.append(start)
        self.durations.append(duration)

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> Sampler:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] without the samples taken inside it, at the
        reference speed given by the mean of those samples and of the two
        around it.  Needs a sample taken just before t0 and one just after t1."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        inside = self.durations[lo:hi]
        around = self.durations[lo - 1:hi + 1]
        return (t1 - t0 - sum(inside)) * REFERENCE_S / statistics.fmean(around)
