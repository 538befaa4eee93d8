"""Machine-speed sampling, to scale timings to a reference speed.

The machine this benchmark was built on changes speed by up to 1.6x within
seconds, because of load from other tenants (CPU time equals wall time and
steal time is nil, so the process is not descheduled; it runs slower).  A
``SpeedSampler`` times a small fixed kernel, which does not use trihill,
from a SIGALRM handler every 50 ms while the workload runs.  An interval's
time at reference speed is its time minus the handler's own time, times
REFERENCE_MS over the mean kernel time sampled inside it: the time the
interval would take on a machine where the kernel takes REFERENCE_MS.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left, bisect_right

REFERENCE_MS = 0.35  # the kernel's typical time on a quiet 2-vCPU Xeon VM
INTERVAL_S = 0.05


def _kernel() -> None:
    """Interpreter and float-formatting work; imports nothing."""
    x = 0
    for i in range(3000):
        x += i * i
    acc = 0.0
    for i in range(300):
        acc += float(format(i * 0.37, ".12g"))


class SpeedSampler:
    def __init__(self):
        self.times: list[float] = []  # handler start times, ascending
        self.kernel_ms: list[float] = []

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _kernel()
        self.times.append(t0)
        self.kernel_ms.append((time.perf_counter() - t0) * 1e3)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, t0: float, t1: float) -> tuple[float, float]:
        """(raw, reference-speed) seconds of the interval [t0, t1].

        Both exclude the handler's own time inside the interval.  An
        interval holding fewer than two samples also uses the samples just
        before and just after it.
        """
        lo, hi = bisect_left(self.times, t0), bisect_right(self.times, t1)
        inside = self.kernel_ms[lo:hi]
        raw = (t1 - t0) - sum(inside) / 1e3
        if len(inside) < 2:
            inside = self.kernel_ms[max(lo - 1, 0) : hi + 1]
        if not inside:
            return raw, raw
        return raw, raw * REFERENCE_MS * len(inside) / sum(inside)
