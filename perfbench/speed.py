"""Machine-speed sampling, so timings from a shared, noisy host compare.

On a host shared with other tenants the same code runs up to about half
again as slow for stretches of ten to thirty seconds, on every core at
once. A sampler in another process does not see the slowdown the measured
thread sees, so the sampler runs in the measured thread itself: a wall-clock
timer interrupts the program every INTERVAL_S and the signal handler runs a
fixed calibration kernel, recording when it ran and how long it took.

A measured interval is then reported as (wall time minus the handler time
inside it) x REFERENCE_S / (mean kernel time around it): the time the
interval would have taken on a host where the kernel takes REFERENCE_S.
The handler touches only its own arrays, so the program's arithmetic is
unchanged; the benchmark's bit-identical loss gates check this.
"""

from __future__ import annotations

import bisect
import signal
import time
from contextlib import contextmanager
from typing import List, Optional

import numpy as np

INTERVAL_S = 0.02
# Kernel time on an uncontended 2-core Xeon sandbox (Python 3.11, numpy 2.4,
# one OpenBLAS thread); it only sets the scale of reported times.
REFERENCE_S = 0.5e-3
# Kernel samples this far either side of an interval also describe it, so
# even a one-millisecond request has several.
PAD_S = 0.1


class SpeedSampler:
    """Context manager that samples kernel time while it is active.

    Main thread only: Python runs signal handlers there.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(8, 24, 64))
        self._w = rng.normal(size=(64, 64)) / 8.0
        self.starts: List[float] = []
        self.ends: List[float] = []
        self._spent_prefix: List[float] = [0.0]
        self._previous = None

    def _kernel(self) -> float:
        # A matmul and elementwise work like the encoder's, small-array
        # numpy calls like one request's, and dict, tuple and string churn
        # like featurization's.
        total = 0.0
        with np.errstate(all="ignore"):
            for _ in range(2):
                h = self._a @ self._w
                total += float((np.tanh(h) * h).sum())
            rows = []
            for i in range(24):
                row = np.zeros(23)
                row[i % 23] = 1.0
                rows.append(row)
            total += float(np.stack(rows).sum())
            table = {}
            for i in range(400):
                key = (str(i & 15), i >> 4)
                table[key] = table.get(key, 0) + 1
            total += len(table)
        return total

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self._spent_prefix.append(self._spent_prefix[-1] + (t1 - t0))

    def __enter__(self) -> "SpeedSampler":
        for _ in range(3):
            self._kernel()
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextmanager
    def deferred(self):
        """Hold the timer signal until the block ends, so the handler never
        runs inside a short measured call and the cache it disturbs never
        lands in that call's latency."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def spent(self, a: float, b: float) -> float:
        """Handler seconds inside [a, b]."""
        lo = bisect.bisect_left(self.ends, a)
        hi = bisect.bisect_right(self.starts, b)
        if hi <= lo:
            return 0.0
        inside = self._spent_prefix[hi] - self._spent_prefix[lo]
        # The first and last handler runs may straddle the edges.
        inside -= max(0.0, a - self.starts[lo])
        inside -= max(0.0, self.ends[hi - 1] - b)
        return inside

    def slowdown(self, a: float, b: float) -> Optional[float]:
        """Mean kernel time around [a, b] over REFERENCE_S."""
        lo = bisect.bisect_left(self.starts, a - PAD_S)
        hi = bisect.bisect_right(self.starts, b + PAD_S)
        if hi <= lo:
            return None
        mean = sum(self.ends[i] - self.starts[i] for i in range(lo, hi)) / (hi - lo)
        return mean / REFERENCE_S

    def scaled(self, a: float, b: float) -> float:
        """Seconds [a, b] would take at reference speed, handler excluded."""
        factor = self.slowdown(a, b)
        if factor is None:
            raise RuntimeError("no speed samples near the interval")
        return ((b - a) - self.spent(a, b)) / factor
