"""Machine-speed probe, sampled all through a run.

On the reference machine a fixed loop of small numpy calls runs up to
twice as slow for stretches of seconds to tens of seconds, so two runs of
the same work can differ by 70% in wall time. The probe measures that
speed while the program runs: an interval timer interrupts the main thread
every INTERVAL_S seconds, and the handler times one fixed calibration loop
that never touches the program. A span of wall time is then scaled to the
reference speed by REF_LOOP_S over the mean loop time sampled within
WINDOW_S of it, after taking off the time spent in the handler itself.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.1
WINDOW_S = 0.5           # samples this close to a span count towards its speed
REF_LOOP_S = 2.3e-3      # loop time on the reference machine in its usual state

# fixed data for the loop: 3x3 and 4x4 matrices, as in the program's work
_RNG = np.random.default_rng(0)
_MATS = ([_RNG.normal(size=(3, 3)) for _ in range(16)]
         + [_RNG.normal(size=(4, 4)) for _ in range(16)])
_STACK = np.stack(_MATS[:4])


def loop_time() -> float:
    """Seconds for one fixed calibration loop. It mimics the program's mix
    of work (power steps on small Gram matrices, Gram-Schmidt, einsum, a
    small solve) without calling it; that mix tracks the program's speed
    better than a tight loop of one numpy call."""
    acc = 0.0
    t0 = time.perf_counter()
    for M in _MATS:
        G = M.T @ M
        v = np.ones(M.shape[0])
        for _ in range(3):
            w = G @ v
            v = w / float(np.linalg.norm(w))
        acc += float(v @ G @ v)
        basis = []
        for col in M.T:
            w = col.copy()
            for q in basis:
                w -= float(np.dot(q, w)) * q
            nw = float(np.linalg.norm(w))
            if nw > 1e-12:
                basis.append(w / nw)
        acc += len(basis) + float(np.einsum("k,kij->ij", np.ones(4), _STACK)[0, 0])
        acc += float(np.linalg.solve(G + np.eye(M.shape[0]), v)[0])
    return time.perf_counter() - t0


class SpeedProbe:
    """Use as a context manager around the timed work. While active,
    ``clock()`` reads wall time with the handler's own time taken off."""

    def __init__(self):
        self.times = []          # start of each sample
        self.loops = []          # loop seconds of each sample
        self.spent = 0.0         # total seconds spent in the handler

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        loop = loop_time()
        self.times.append(t0)
        self.loops.append(loop)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        loop_time()              # the first loop in a process runs cold
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)
        return False

    def clock(self):
        """(wall time, handler time so far); the difference of two
        readings is the work's own wall time. Scale it with factor() once
        the probe has stopped, so samples after the span count too."""
        return time.perf_counter(), self.spent

    def factor(self, t0: float, t1: float) -> float:
        """REF_LOOP_S over the mean loop time sampled within WINDOW_S of
        [t0, t1]."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        window = self.loops[lo:hi]
        if not window:
            # no sample near the span: the nearest ones
            j = bisect.bisect_left(self.times, t0)
            window = self.loops[max(0, j - 1):j + 1]
        return REF_LOOP_S / (sum(window) / len(window))

    def median_loop(self) -> float:
        return float(np.median(self.loops)) if self.loops else float("nan")


class NullProbe:
    """Stands in for SpeedProbe where no sampling is wanted: raw wall time,
    factor 1, and a calibration read from loops run before the work."""

    times = loops = ()

    def __enter__(self):
        self._calibration = float(np.median([loop_time() for _ in range(50)]))
        return self

    def __exit__(self, *exc):
        return False

    def clock(self):
        return time.perf_counter(), 0.0

    def factor(self, t0: float, t1: float) -> float:
        return 1.0

    def median_loop(self) -> float:
        return self._calibration
