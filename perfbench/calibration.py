"""Wall times calibrated for machine speed.

On a shared box the same work can take 25% longer for seconds at a time. A
fixed pure-Python loop shaped like sqk's hot paths (tuple composition with
dict lookups, a strided Q3-style scan of a 256x256 table; no sqk code) is
timed before a piece of work, after it, and every SAMPLE_EVERY seconds
during it from a SIGALRM timer. The work's wall time, less the time those
samples took, is scaled by NOMINAL over the mean sample. NOMINAL is about
the loop's time when the 2-core Xeon box of README.md is quiet, so a
calibrated second is a second at that speed. sqk cannot influence the
loop, so a faster sqk shows in full.
"""

from __future__ import annotations

import signal
import statistics
import time

NOMINAL = 0.0035
SAMPLE_EVERY = 0.2

_P = tuple((7 * a + 3) % 24 for a in range(24))
_T = tuple(tuple((2 * b - a) % 256 for b in range(256)) for a in range(256))


def loop() -> float:
    """Seconds the calibration loop takes right now."""
    p, t = _P, _T
    t0 = time.perf_counter()
    seen: dict[tuple[int, ...], int] = {}
    q = p
    for _ in range(500):
        q = tuple(p[q[a]] for a in range(24))
        seen[q] = seen.get(q, 0) + 1
    for a in range(0, 256, 32):
        for b in range(256):
            ab = t[a][b]
            for c in range(0, 256, 16):
                if t[ab][c] != t[t[a][c]][t[b][c]]:
                    seen.clear()
    return time.perf_counter() - t0


class Clock:
    """Times calls one after another; the sample after one call is the
    sample before the next."""

    def __init__(self):
        self._last = loop()
        self._samples: list[float] = []
        self._spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._samples.append(loop())
        self._spent += time.perf_counter() - t0

    def call(self, fn, *args):
        """Return (fn(*args), wall seconds, calibrated seconds). Exceptions
        from fn propagate once the timer is stopped."""
        self._samples, self._spent = [self._last], 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        wall = elapsed - self._spent
        self._last = loop()
        self._samples.append(self._last)
        return result, wall, wall * NOMINAL / statistics.fmean(self._samples)
