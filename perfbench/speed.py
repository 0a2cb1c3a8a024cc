"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of one core changes by up to about 2x over
seconds to minutes as other tenants load it, for identical work. To keep
that out of the comparison between two commits, a fixed loop that does
not touch twostrain is timed every ``PERIOD_S`` seconds from a timer
signal while the benchmark runs. The loop mixes interpreter work with
reads scattered over a list larger than the core's L2 cache, because the
slow spells come mostly from other tenants' use of the shared cache and
memory: they slowed the program about as much as the scattered reads and
much more than the interpreter work alone.

A job's calibrated time is its measured time, minus the time spent in
those samples, times the mean of ``NOMINAL_S`` over each sample's
duration from ``WINDOW_S`` before the job to ``WINDOW_S`` after it: the
time the job would take on a core where the loop takes ``NOMINAL_S``.
A slower program moves its calibrated time; a busier machine slows both
and moves it much less.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

# The reference speed; the loop took about 4 to 7 ms on a loaded 2-core
# Xeon host (2 MB L2 per core).
NOMINAL_S = 5.0e-3
PERIOD_S = 0.1
WINDOW_S = 0.5
BRACKET_SAMPLES = 10
# 400k shuffled floats, about 13 MB; every 8th is read per sample.
SCATTERED_SIZE = 400_000
SCATTERED_STEP = 8


def _rates(P, S, V, W):
    return (
        0.4 * (1.0 - P) * P - 0.3 * P * S,
        0.7 * (1.0 - S) * S - 0.2 * P * S - 0.4 * V * S + 0.3 * V,
        0.4 * V * S - 0.3 * V - 0.2 * P * V,
        0.7 * W * S - 0.4 * W - 0.2 * P * W,
    )


def scattered_floats() -> list[float]:
    """Float objects in a fixed random order, so reading them in list
    order jumps around memory."""
    values = [float(i) for i in range(SCATTERED_SIZE)]
    random.Random(0).shuffle(values)
    return values


def calibration_loop(scattered: list[float]) -> int:
    """Fixed work shaped like the program's: closure-based RK steps on
    tuples, ``.17g`` CSV formatting, small eigenvalue problems and reads
    of float objects scattered over ``scattered``."""
    total = 0.0
    for x in scattered[::SCATTERED_STEP]:
        total += x
    y, h = (0.5, 0.8, 0.1, 0.1), 0.01
    rows = []
    for i in range(60):
        k1 = _rates(*y)
        k2 = _rates(*(a + 0.5 * h * k for a, k in zip(y, k1)))
        k3 = _rates(*(a + 0.5 * h * k for a, k in zip(y, k2)))
        k4 = _rates(*(a + h * k for a, k in zip(y, k3)))
        y = tuple(a + h / 6.0 * (p + 2.0 * q + 2.0 * r + s)
                  for a, p, q, r, s in zip(y, k1, k2, k3, k4))
        rows.append(f"{i * h:.17g},{y[0]:.17g},{y[1]:.17g},{y[2]:.17g},{y[3]:.17g}\n")
    m = np.array([[y[0], 0.1, 0.0, 0.0], [0.2, y[1], 0.1, 0.0], [0.0, 0.3, y[2], 0.0], [0.0, 0.0, 0.1, y[3]]])
    for _ in range(2):
        np.linalg.eigvals(m)
    return len("".join(rows)) + int(total)


class SpeedProbe:
    """Samples of the calibration loop: start times and durations."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0
        self.scattered = scattered_floats()

    def sample(self) -> None:
        # Without collections, so the program's own garbage does not slow
        # the loop and shrink the program's calibrated time.
        enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        try:
            calibration_loop(self.scattered)
        finally:
            dt = perf_counter() - t0
            if enabled:
                gc.enable()
        self.times.append(t0)
        self.durations.append(dt)
        self.spent += dt

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def bracket(self) -> None:
        """Take samples back to back, next to work the timer does not sample."""
        for _ in range(BRACKET_SAMPLES):
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """Mean of NOMINAL_S / sample from WINDOW_S before t0 to WINDOW_S after t1.

        Samples are evenly spaced in time, so this is the time-average of
        the speed; a sample stretched by preemption adds almost nothing.
        """
        lo = bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect_right(self.times, t1 + WINDOW_S)
        window = self.durations[lo:hi] or self.durations[-3:]
        return NOMINAL_S * statistics.fmean(1.0 / d for d in window)


class Stopwatch:
    """Times jobs, excluding calibration samples taken while they ran."""

    def __init__(self, probe: SpeedProbe) -> None:
        self.probe = probe
        self.spans: list[tuple[float, float, float]] = []  # (start, end, raw seconds) per job

    def time(self, fn):
        """Run ``fn`` once as one timed job and return its result."""
        spent = self.probe.spent
        t0 = perf_counter()
        try:
            return fn()
        finally:
            t1 = perf_counter()
            self.spans.append((t0, t1, t1 - t0 - (self.probe.spent - spent)))

    def calibrated(self) -> list[float]:
        return [raw * self.probe.factor(t0, t1) for t0, t1, raw in self.spans]

    def raw(self) -> list[float]:
        return [raw for _, _, raw in self.spans]
