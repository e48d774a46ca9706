"""Host-speed calibration, so end-to-end timings survive the host's speed phases.

On a shared 2-vCPU x86-64 host the same gch run takes 0.35 s in one phase
and 0.6-0.9 s in the next.  Phases last 5-30 s, differ between the two
vCPUs (correlation 0.12) and slow every part of a run alike, so no
statistic over the runs of one 15 s window removes them: the median run of
such windows spread (q3 - q1 over the median) by 13-35% between windows,
the fastest run by 8-16%.  A fixed loop of the same kind of work, timed on
the same CPU just before and just after each run, tracks the phase
(correlation 0.76-0.86 with a 0.4 s run time), and the run times rescaled
by it spread by 3-5% between windows.  A 7-10 s run spans several phases,
so the loop is also timed every 0.5 s inside the run, from a signal
handler; that time is taken out of the run's wall time.  Rescaled so, the
per-run CV of the ``long`` run fell from 14% to 6%, against 12-18% with
calibrations at its edges only.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from numpy.fft import irfft, rfft  # bound here: a traced run wraps numpy.fft's own names

#: Seconds a calibration loop of 200 iterations takes on the reference host
#: in its fast phase.
REFERENCE_S = 0.0125
#: Iterations of the loop at each edge of a run, and at each sample inside it.
EDGE_ITERATIONS = 200
SAMPLE_ITERATIONS = 40
#: Seconds between samples inside a run.
INTERVAL = 0.5

_X = np.linspace(0.0, 1.0, 4096)


def calibrate(iterations: int) -> float:
    """Seconds for a fixed loop of 4096-point FFT pairs and Python integer sums."""
    t0 = time.perf_counter()
    for _ in range(iterations):
        irfft(rfft(_X))
        total = 0
        for i in range(200):
            total += i
    return time.perf_counter() - t0


class Speed:
    """Calibrates just before and after a timed block and, every INTERVAL
    seconds inside it, from a SIGALRM handler on the same thread."""

    def __init__(self):
        self.seconds = 0.0  # spent in calibration loops
        self.iterations = 0
        self.inside = 0.0  # of which inside the block

    def _sample(self, iterations: int) -> float:
        spent = calibrate(iterations)
        self.seconds += spent
        self.iterations += iterations
        return spent

    def _on_alarm(self, signum, frame) -> None:
        self.inside += self._sample(SAMPLE_ITERATIONS)

    def __enter__(self):
        self._sample(EDGE_ITERATIONS)
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(EDGE_ITERATIONS)

    def rescale(self, wall: float) -> float:
        """``wall`` seconds of the block, at the reference speed."""
        return rescale(wall, self.iterations, self.seconds)


def rescale(seconds: float, iterations: int, spent: float) -> float:
    """``seconds`` at the reference speed, given ``iterations`` of the loop took ``spent``."""
    return seconds * (REFERENCE_S / EDGE_ITERATIONS) * iterations / spent
