"""A machine-speed probe interleaved with the timed calls.

The CPU of a shared machine changes speed in phases of seconds to minutes,
and every kind of code (pure Python, small-matrix numpy, the program itself)
slows and speeds up together.  While a timed call runs, a wall-clock timer
interrupts it every ``INTERVAL_S`` and the signal handler runs one fixed
chunk of small-matrix numpy work, timing it.  Chunk time is not call time.
Each stretch of call time between two chunks is weighted by how fast the
machine was around it (``REF_CHUNK_S`` over the mean time of the nearest
chunks), which gives the call's duration at a fixed reference speed: that
duration stays put when the machine drifts.
"""
from __future__ import annotations

import signal
import time

import numpy as np

#: seconds between probe chunks
INTERVAL_S = 0.05
#: chunk time that defines the reference speed: about the mean chunk time,
#: interleaved with ldsmdl, on the 2-CPU 2.0 GHz Xeon the bounds were set on
REF_CHUNK_S = 1.8e-3
_CHUNK_STEPS = 200
#: chunks on each side of a stretch of call time that set its speed
HALF_WINDOW = 5


class SpeedProbe:
    """Interleave timed probe chunks with whatever runs inside ``with``."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self._a = rng.standard_normal((10, 6, 6)) * 0.1
        #: total seconds and number of chunks run so far
        self.total_s = 0.0
        self.chunks = 0
        #: (start, duration) of every chunk
        self.log = []

    def _chunk(self, signum, frame):
        t0 = time.perf_counter()
        x = self._a
        for _ in range(_CHUNK_STEPS):
            x = 0.5 * (x @ self._a + np.swapaxes(x, -1, -2))
        t1 = time.perf_counter()
        self.total_s += t1 - t0
        self.chunks += 1
        self.log.append((t0, t1 - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._chunk)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def speed(self) -> float:
        """Reference chunk time over the mean chunk time (1.0 at reference
        speed, below 1 when the machine ran slower; 1.0 before any chunk)."""
        return REF_CHUNK_S * self.chunks / self.total_s if self.chunks else 1.0

    def reference_s(self, t0: float, t1: float) -> float:
        """Call time between ``t0`` and ``t1``, chunks excluded, converted to
        the reference speed."""
        chunks = [c for c in self.log if t0 <= c[0] < t1]
        if not chunks:
            return (t1 - t0) * self.speed()
        starts = [t0] + [c[0] + c[1] for c in chunks]
        ends = [c[0] for c in chunks] + [t1]
        durations = [c[1] for c in chunks]
        total = 0.0
        for k, (start, end) in enumerate(zip(starts, ends)):
            near = durations[max(0, k - HALF_WINDOW):k + HALF_WINDOW]
            total += (end - start) * REF_CHUNK_S * len(near) / sum(near)
        return total
