"""Host-speed sampling, so that the time metrics follow the program and not
the host it runs on.

On a shared host the same pass runs up to 1.7x slower from one minute to
the next (see README.md, "Noise").  `Sampler.install` arms a SIGALRM
timer; every INTERVAL_S the handler runs `probe`, a fixed pure-Python
loop that never touches nilorb, and records when it ran and how long it
took.  The handler runs in the main thread between bytecodes, so probes
land inside long jobs too.

`Sampler.normalized(a, b)` turns an interval of the pass into *reference
seconds*: its length, minus the time the handler took inside it, times the
host's mean speed over the interval, where a probe that took p ns saw the
speed NOMINAL_PROBE_NS / p.  Probes are evenly spaced in time, so their
mean speed is the interval's; it is the harmonic mean of the probe times
that enters, not their median, because the host flips between a fast and
a slow state within one job.  A program change moves this figure as it
moves the raw time; a host that runs everything 1.4x slower for a minute
moves the probe and the program alike and leaves the figure where it was.
"""

from __future__ import annotations

import gc
import signal
import statistics
from array import array
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter_ns

INTERVAL_S = 0.01
PROBE_ITERS = 600
# Median time of one probe on the reference VM in its fast state (README.md).
# It only fixes the scale: a reference second is a second of that VM.
NOMINAL_PROBE_NS = 300_000
# Fewest probes that scale an interval; a shorter interval borrows the
# probes nearest to its middle.
MIN_PROBES = 9


def probe() -> int:
    """Interpreter work of the kinds nilorb does: small-int arithmetic,
    tuple keys in a dict, and Fraction arithmetic."""
    d: dict[tuple[int, int], int] = {}
    s = 0
    for i in range(PROBE_ITERS):
        k = (i % 97, i % 13)
        d[k] = d.get(k, 0) + i * 3 % 11
        s += i * i % 7
        if i % 20 == 0:
            s += (Fraction(i % 17, i + 1) + Fraction(3, i + 2)).denominator
    return s


class Sampler:
    def __init__(self) -> None:
        self.starts = array("q")  # probe start, perf_counter_ns
        self.probe_ns = array("q")  # probe duration
        self.handler_ns = array("q")  # whole handler, probe included
        self.installed_ns = 0

    def _handler(self, signum, frame) -> None:
        enter = perf_counter_ns()
        enabled = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not host speed
        t0 = perf_counter_ns()
        probe()
        t1 = perf_counter_ns()
        if enabled:
            gc.enable()
        self.starts.append(t0)
        self.probe_ns.append(t1 - t0)
        self.handler_ns.append(perf_counter_ns() - enter)

    def install(self) -> None:
        self.installed_ns = perf_counter_ns()
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def uninstall(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def overhead_ns(self, a: int, b: int) -> int:
        """Time the handler took inside [a, b)."""
        return sum(self.handler_ns[bisect_left(self.starts, a):bisect_left(self.starts, b)])

    def slowdown(self, a: int, b: int) -> float:
        """Harmonic mean of the probe times near [a, b) over NOMINAL_PROBE_NS."""
        lo, hi = bisect_left(self.starts, a), bisect_left(self.starts, b)
        if hi - lo < MIN_PROBES:
            if not self.starts:
                raise RuntimeError("no host-speed probe ran in the pass")
            count = min(MIN_PROBES, len(self.starts))
            mid = bisect_left(self.starts, (a + b) // 2)
            lo = max(0, min(mid - count // 2, len(self.starts) - count))
            hi = lo + count
        return statistics.harmonic_mean(self.probe_ns[lo:hi]) / NOMINAL_PROBE_NS

    def normalized(self, a: int, b: int, raw_ns: int | None = None) -> float:
        """Reference seconds of [a, b); raw_ns, if given, replaces b - a
        as the interval's length (it may start before the sampler did)."""
        length = (b - a if raw_ns is None else raw_ns) - self.overhead_ns(a, b)
        return length / 1e9 / self.slowdown(a, b)
