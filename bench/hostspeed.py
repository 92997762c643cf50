"""Host-speed normalisation of the benchmark's wall times.

The benchmark runs on a share of a host whose speed for a single-threaded
Python process shifts by up to twofold, in spells of a fraction of a
second to minutes, with CPU time equal to wall time throughout.  A run
cannot average such spells out, so every timed interval (an op, a set-up)
is bracketed by probes: a fixed piece of pure-Python work, independent of
gradus, timed on its own.  A `Sampler` also probes every PROBE_EVERY_S of
CPU time inside the interval, from a SIGPROF handler, and the time spent in
those probes is taken out of the interval's.  A time is reported at the
reference speed:

    reported = measured * REFERENCE_PROBE_S / median probe time around it

The probe does what gradus spends its time on: Python integer arithmetic on
numbers of a few hundred bits, tuple and list building, dictionary stores
and function calls.  Neither it nor the constant depends on the program,
so a change to gradus moves the measured time and leaves the probe alone;
a spell of the host moves both.  Repeating one op on a fixed order, the
quartile spread of 20-op medians fell from 0.30-0.43 to 0.05-0.06 this way,
and probing inside a 0.9 s op cut the spread of single ops by a third more.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

# the probe's time in a fast spell of the 2-core VM the benchmark was
# written on; it only sets the scale, so reported times are close to the
# wall times of a fast spell there
REFERENCE_PROBE_S = 0.004
# CPU time between probes inside a timed interval: about 4% of it is probing
PROBE_EVERY_S = 0.1

_BASE = 3**200


def _step(i: int, d: dict) -> int:
    v = [(_BASE * (i + 1)) % 1000003, i * i, i ^ 5]
    t = tuple(a + b for a, b in zip(v, v[1:]))
    d[i & 63] = t
    return sum(t) // 7


def probe() -> float:
    """Wall time of the fixed probe work, in seconds."""
    t0 = perf_counter()
    d: dict = {}
    acc = 0
    for i in range(2500):
        acc += _step(i, d)
    return perf_counter() - t0


class Sampler:
    """Probes every PROBE_EVERY_S of the process's CPU time while it is
    entered; `probes` holds their times, which the interval includes."""

    def __init__(self, active: bool = True):
        self.active = active
        self.probes: list[float] = []

    def _on_prof(self, signum, frame):
        self.probes.append(probe())

    def __enter__(self):
        if self.active:
            self._previous = signal.signal(signal.SIGPROF, self._on_prof)
            signal.setitimer(signal.ITIMER_PROF, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, self._previous)
        return False


def scale(measured: float, probes: list[float]) -> float:
    """`measured` at the reference speed, given the probes taken around it."""
    return measured * REFERENCE_PROBE_S / statistics.median(probes)


def scale_series(times: list[float], before: list[float], inside: list[list[float]],
                 after: list[float]) -> list[float]:
    """Scale a closed-loop series of times, where before[k], inside[k] and
    after[k] were probed just before, during and just after times[k].  Each
    time is scaled by the median of its own probes and the outer probes of
    its neighbours, so one disturbed probe does not move it."""
    n = len(times)
    return [
        scale(times[k], before[max(0, k - 1):k + 1] + inside[k] + after[k:min(n, k + 2)])
        for k in range(n)
    ]
