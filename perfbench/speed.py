"""The benchmark's time base: thread CPU time, rescaled to a reference core speed.

The shared 2-vCPU VMs this benchmark was tuned on change speed under it. The
host takes the vCPU away for tens of ms at a time. That is steal time, which
thread CPU time leaves out but wall time does not. The core also slows by up
to 1.8x for seconds to minutes at a time, whatever the benchmark does. Thread
CPU time counts that slowdown too: the unicycle's ``tighten`` took 0.74 s of
CPU in one minute and 1.36 s in the next.

So a timer signal (``SIGPROF``, every ``INTERVAL_S`` of CPU time) runs a fixed
kernel of the same kinds of work as the program: a Python loop, small solves
and small SVD rank tests. The mean kernel cost over a stretch of the run says
how slow the core was on average. Durations measured in that stretch are
rescaled by ``REFERENCE_S`` over that mean, so they read "CPU seconds at
reference speed". The stretch is the pass an operation belongs to (see
``run.py``). ``REFERENCE_S`` is about the kernel's cost on the tuning
machine (Intel Xeon, 2.0 GHz) at its faster speed. There these times equal CPU time,
and CPU time equals wall time for this single-threaded, compute-bound
program. The time the kernel itself takes is left out of ``clock()``.

A single ~1 ms kernel sample is too noisy to rescale one 4 ms step by. Also,
a factor per unicycle step (about 20 samples each) spread the 66th percentile
of the steps: it moved by 9% between runs, against 3% with one factor per
course.
"""

from __future__ import annotations

import signal
import time

import numpy as np

REFERENCE_S = 0.65e-3
INTERVAL_S = 0.05

_M = np.linspace(-1.0, 1.0, 24 * 40).reshape(24, 40) ** 3
_S = np.eye(6) + 0.01 * np.arange(36.0).reshape(6, 6)
_b = np.ones(6)


def kernel() -> float:
    """Fixed work, a third each: SVD rank tests, small solves, a Python loop."""
    acc = 0.0
    for i in range(4):
        acc += float(np.linalg.matrix_rank(_M[: 12 + 3 * i]))
    for _ in range(24):
        acc += float(np.linalg.solve(_S, _b)[0])
    for _ in range(48):
        acc += sum(j * 0.5 for j in range(60))
    return acc


class Speed:
    """Samples the kernel's cost while active; ``clock()`` excludes the sampling."""

    def __init__(self):
        self.spent = 0.0  # CPU seconds the kernel has taken so far
        self.times: list[float] = []  # clock() at each sample
        self.costs: list[float] = []  # kernel CPU seconds of each sample
        self._busy = False
        self._previous = None

    def clock(self) -> float:
        return time.thread_time() - self.spent

    def sample(self, *_signal_args) -> None:
        if self._busy:  # a timer signal that lands inside a sample is dropped
            return
        self._busy = True
        try:
            t0 = time.thread_time()
            kernel()
            cost = time.thread_time() - t0
            self.times.append(t0 - self.spent)
            self.costs.append(cost)
            self.spent += cost
        finally:
            self._busy = False

    def __enter__(self) -> "Speed":
        kernel()  # first-call costs stay out of the samples
        self.sample()  # every interval then has a sample at or before its start
        self._previous = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def factor(self, t0: float, t1: float) -> float:
        """Reference-speed seconds per clock() second over [t0, t1].

        Uses the samples taken in [t0, t1], or all samples if none fell there.
        """
        costs = [c for t, c in zip(self.times, self.costs) if t0 <= t <= t1] or self.costs
        return REFERENCE_S / (sum(costs) / len(costs))
