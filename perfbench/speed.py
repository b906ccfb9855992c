"""Machine-speed probe: op times in units of a fixed reference kernel.

On a shared virtual machine the same code can run 1.45x slower for
stretches of seconds to minutes, and CPU time slows with it. A median
of raw op times then depends on which stretches a run happened to see.
The probe times a small fixed kernel every ``INTERVAL`` seconds from a
SIGALRM handler, inside the ops as well as between them. Each op's time,
less the kernel time spent inside it, is then divided by the mean kernel
time around it. The kernel is plain Python integer mixing. It lives here
and uses nothing from etckit, so a change to etckit moves the ratio and a
change of machine speed does not. A kernel with numpy passes added tracked
the machine worse on every workload, so it has none.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

INTERVAL = 0.025  # seconds between kernel samples
_MASK = (1 << 64) - 1


def kernel() -> int:
    """About 0.3 ms on a 2 GHz core: 400 SplitMix64 finalizer rounds."""
    z = 0x9E3779B97F4A7C15
    for _ in range(400):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z


class SpeedProbe:
    """Samples the kernel from SIGALRM between :meth:`start` and :meth:`stop`."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        kernel()
        self.starts.append(t0)
        self.durations.append(perf_counter() - t0)

    def start(self) -> None:
        self._on_alarm(None, None)  # so every run has at least one sample
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def window(self, t0: float, t1: float) -> tuple[float, float]:
        """(mean kernel seconds of the samples within INTERVAL of [t0, t1],
        kernel seconds spent inside [t0, t1])."""
        lo = bisect.bisect_left(self.starts, t0 - INTERVAL)
        hi = bisect.bisect_right(self.starts, t1 + INTERVAL)
        if lo == hi:  # no sample near: take the next one, or the last
            lo = max(0, min(lo, len(self.starts) - 1))
            hi = lo + 1
        near = self.durations[lo:hi]
        inside = sum(d for s, d in zip(self.starts[lo:hi], near) if t0 <= s <= t1)
        return sum(near) / len(near), inside
