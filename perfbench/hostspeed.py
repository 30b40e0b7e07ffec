"""Host-speed correction for timings taken on a shared virtual machine.

The vCPUs of a shared host switch between speeds up to about 2x apart, for
stretches of milliseconds to seconds, as neighbours come and go.  That moves
a 30 s run's wall time, and even more a 2 ms check's latency, by more than
the regressions the benchmark is meant to catch.

So while a batch runs, a real-time interval timer times a fixed pure-Python
loop (the probe) every PERIOD_S.  Speed is inversely proportional to probe
time, so an item's duration times ``REFERENCE_S / probe``, averaged over the
probes taken within WINDOW_S around it (or over the item, if it is longer),
is the time the same work takes at the reference speed.  A slower program
still reads slower: the probe does not touch the package, and it warms up
before it is timed so that what ran before it matters little.

Time spent inside probes is excluded from ``Probe.clock``, so it is not
charged to the workload.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.01
WINDOW_S = 0.5
LOOPS = 1000
# probe time at the speed all corrected timings are scaled to: about the
# typical probe on the 2-vCPU Xeon KVM guest the benchmark was written on
REFERENCE_S = 0.00018


def _loop(count: int) -> None:
    table: dict[int, int] = {}
    acc = 0
    for i in range(count):
        acc += i * i % 7
        table[i & 63] = abs(acc)


def probe() -> float:
    """Duration of a fixed loop of integer, dict and call work, timed after
    a short warm-up."""
    _loop(LOOPS // 10)
    t0 = time.perf_counter()
    _loop(LOOPS)
    return time.perf_counter() - t0


class Probe:
    """Context manager sampling host speed while a batch runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []  # probe durations
        self.times: list[float] = []  # clock() when each probe ran
        self._spent = 0.0
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that arrives during a probe is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        self.times.append(t0 - self._spent)
        self.samples.append(probe())
        self._spent += time.perf_counter() - t0
        self._busy = False

    def clock(self) -> float:
        """perf_counter minus the time spent in probes."""
        return time.perf_counter() - self._spent

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, end: float) -> float:
        """Duration of [start, end] (clock() values) at the reference speed,
        from the probes within WINDOW_S around it, or else the nearest one."""
        if not self.samples:  # a batch shorter than PERIOD_S
            self._tick(None, None)
        middle = (start + end) / 2
        half = max(end - start, WINDOW_S) / 2
        lo = bisect.bisect_left(self.times, middle - half)
        hi = bisect.bisect_right(self.times, middle + half)
        if lo == hi:
            lo = min(lo, len(self.times) - 1)
            hi = lo + 1
        inverse = statistics.fmean(1 / s for s in self.samples[lo:hi])
        return (end - start) * REFERENCE_S * inverse
