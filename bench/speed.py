"""Machine speed: probes, and times scaled by them.

The host is shared: its speed drifts by a third within seconds and for
minutes at a time, and CPU time drifts with it, so plain wall times of the
same code spread wider than any useful bound.  Every timed operation is
therefore bracketed by speed probes, a fixed piece of pure-Python Fraction
arithmetic, and each stretch between two probes is scaled by
REFERENCE_PROBE_S over the mean of their times.  Scaled times read as on a
machine where the probe takes REFERENCE_PROBE_S.  The probe runs no mplab
code and runs with the cyclic collector off, so no change to mplab (a cache
that grows the heap, say) can move it.

NumPy work on large arrays is partly memory-bound and slows less than pure
Python when the host is busy, so the pure-Python probe over-corrects it.  For
the ``numeric`` workload the probe also copies COPY_BYTES twice, which damps
its response to the host's speed.

Standard library only, and light: the ``cli`` workload loads it into the
cold processes it times.
"""

from __future__ import annotations

import bisect
import gc
import math
import signal
import time
from fractions import Fraction

REFERENCE_PROBE_S = 0.5e-3
PROBE_TERMS = 100
PROBE_REPEATS = 3
PROBE_PERIOD_S = 0.05  # inside a process that cannot probe between its own steps
COPY_BYTES = 2 << 20


def _probe_once(buffers: tuple[memoryview, memoryview] | None) -> float:
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, PROBE_TERMS):
        total += Fraction(i, i + 7) * Fraction(3, i + 1)
    if buffers:
        source, target = buffers
        target[:] = source
        target[:] = source
    return time.perf_counter() - start


class SpeedLog:
    """Speed probes on the ``perf_counter`` clock, and times scaled by them.

    A probe is (start, end, seconds): the median of PROBE_REPEATS timings of
    the probe work, which copies memory too if ``copy``.  Children send
    theirs to the parent, which merges them.
    """

    def __init__(self, copy: bool = False):
        self._buffers = ((memoryview(bytearray(b"x" * COPY_BYTES)),
                          memoryview(bytearray(COPY_BYTES))) if copy else None)
        self.probes: list[tuple[float, float, float]] = []
        self._starts: list[float] = []
        self._busy = False

    def probe(self) -> None:
        if self._busy:  # the timer fired inside a probe
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            took = sorted(_probe_once(self._buffers)
                          for _ in range(PROBE_REPEATS))[PROBE_REPEATS // 2]
            self.probes.append((start, time.perf_counter(), took))
            self._starts.append(start)
        finally:
            if collecting:
                gc.enable()
            self._busy = False

    def every(self, period_s: float | None) -> None:
        """Probe every ``period_s`` seconds of wall time, from a timer signal,
        inside whatever runs; None stops it.  A probe waits for a running C
        call to return, as any signal handler does."""
        if period_s is None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            return
        signal.signal(signal.SIGALRM, lambda signum, frame: self.probe())
        signal.setitimer(signal.ITIMER_REAL, period_s, period_s)

    def merge(self, probes) -> None:
        self.probes = sorted(self.probes + [tuple(p) for p in probes])
        self._starts = [p[0] for p in self.probes]

    def scaled(self, start: float, end: float) -> float:
        """The time from start to end less the probes in it, each stretch
        between two probes scaled by REFERENCE_PROBE_S over their mean time;
        before the first probe and after the last, by that probe alone."""
        probes = self.probes
        if not probes:
            raise RuntimeError("no speed probe was taken")
        lo = max(0, bisect.bisect_left(self._starts, start) - 1)
        hi = min(len(probes), bisect.bisect_right(self._starts, end) + 1)
        total = 0.0
        for k in range(lo, hi + 1):  # stretch k ends where probe k starts
            before = probes[k - 1] if k > 0 else None
            after = probes[k] if k < len(probes) else None
            left = before[1] if before else -math.inf
            right = after[0] if after else math.inf
            overlap = min(end, right) - max(start, left)
            if overlap > 0:
                took = [p[2] for p in (before, after) if p]
                total += overlap * REFERENCE_PROBE_S * len(took) / sum(took)
        return total

    def median_probe_s(self) -> float:
        took = sorted(p[2] for p in self.probes)
        return took[len(took) // 2]
