"""Host speed, sampled while timed work runs, to scale timings by.

The benchmark's host is a share of a busy machine: the same fixed work
runs up to twice as slow for stretches of seconds, and CPU time slows
with wall time, so raw times move with the host as much as with the
program.  So while a pass runs, a background thread times a fixed piece
of benchmark code every ``PERIOD_S`` seconds; it shares no code with the
program.  Each timed sample is then scaled by

    REFERENCE_S / (the kernel's median time around that sample)

that is, reported at the host speed at which the kernel takes
``REFERENCE_S``.  A change to the program moves its samples and not the
kernel, so it still shows in full.

The kernel is a pure-Python loop, which holds the interpreter lock and so
runs while the program waits for it, and a run of small SVDs; the geometric
mean of their times is the kernel's time.  Timed against a fixed chunk of
the program's EMG filtering (2.2 s, 90 s of repeats on a 2-vCPU VM),
scaling cut the spread of the chunk's time (interquartile range over
median) from 0.14 to 0.07, where timings taken just before and after each
chunk gave 0.18.
"""

from __future__ import annotations

import bisect
import math
import statistics
import threading
import time
from typing import List, Sequence, Tuple

import numpy as np

#: The kernel's time, in seconds, on the VM the README's baselines were
#: measured on, in its faster stretches; scaled times are in its seconds.
REFERENCE_S = 3.0e-4
#: How often the kernel is timed.
PERIOD_S = 0.05
#: Fewest kernel timings a factor is taken over; the nearest are used.
#: Ten (about 0.5 s) keep the factor of a single query from carrying the
#: noise of a single kernel timing into the latency tail.
MIN_SAMPLES = 10

_WINDOW = np.random.default_rng(0).random((12, 3))


def _interpreter_work() -> float:
    total = 0.0
    for i in range(4000):
        total += i * 0.5
    return total


def _lapack_work() -> float:
    return sum(float(np.linalg.svd(_WINDOW, compute_uv=False)[0]) for _ in range(20))


def kernel_s() -> float:
    """One timing of the kernel: the geometric mean of its two parts."""
    t0 = time.perf_counter()
    _interpreter_work()
    t1 = time.perf_counter()
    _lapack_work()
    t2 = time.perf_counter()
    return math.sqrt((t1 - t0) * (t2 - t1))


class HostSpeed:
    """Times the kernel in a background thread while the ``with`` block runs."""

    def __init__(self) -> None:
        self._at: List[float] = []
        self._took: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="host-speed",
                                        daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(PERIOD_S):
            at = time.perf_counter()
            took = kernel_s()
            self._at.append(at)
            self._took.append(took)

    def __enter__(self) -> "HostSpeed":
        self._at.append(time.perf_counter())
        self._took.append(kernel_s())
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factors(self, intervals: Sequence[Tuple[float, float]]) -> List[float]:
        """Scale factor of work timed over each ``(start, stop)`` interval.

        Each is taken over the kernel timings that started in the interval,
        or the ``MIN_SAMPLES`` nearest to it if it holds fewer.
        """
        n = min(len(self._at), len(self._took))
        at, took = self._at[:n], self._took[:n]
        out = []
        for start, stop in intervals:
            lo, hi = bisect.bisect_left(at, start), bisect.bisect_left(at, stop)
            while hi - lo < min(MIN_SAMPLES, n):
                before = at[lo - 1] if lo > 0 else -math.inf
                after = at[hi] if hi < n else math.inf
                if start - before <= after - stop:
                    lo -= 1
                else:
                    hi += 1
            out.append(REFERENCE_S / statistics.median(took[lo:hi]))
        return out
