"""Host-speed sampling, to state a pass's time in reference-host seconds.

The benchmark runs on a few cores of a shared host, which runs the same pass
up to about 1.5x slower or faster for stretches of seconds to minutes.  Such
a stretch moves every pass in it alike, so ten runs of the same code spread
more than a change in the package would move them.

``HostClock`` samples the host's speed all through a pass or a set-up: at a
fixed interval of wall time a ``SIGALRM`` handler times ``probe``, a fixed
pure-Python loop of about a millisecond.  The probe does what the package
spends its time on (Fraction arithmetic, tuple keys, dict updates) but calls
nothing of it, so no change to the package changes its time; only the host
does.  The collector is off while it runs, so the package's collector
settings do not reach it either.

A stretch of time ``dt`` in which the probe takes ``p`` seconds is worth
``dt * PROBE_REF_S / p`` seconds on the reference host, the one on which the
probe takes ``PROBE_REF_S``.  Since the samples are evenly spaced in time,
``to_reference(t)`` scales a time ``t`` by the mean of ``PROBE_REF_S / p``
over the samples.  Time spent in the handler is counted in ``spent`` so that
callers can take it out of what they time.
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

PASS_INTERVAL_S = 0.05  # about 2% of a pass goes to sampling
SETUP_INTERVAL_S = 0.01  # a set-up takes only about 0.1 s
# About the probe's median time on the host that baseline.json was recorded
# on (2-vCPU Intel Xeon VM, CPython 3.11), so reference seconds read close to
# wall seconds there.
PROBE_REF_S = 0.001

_ROW = [Fraction(3 * j - 7, 2 + j % 3) for j in range(6)]


def probe() -> float:
    """Time one run of the fixed calibration loop, in seconds."""
    was_enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    row = _ROW
    pivot = 1 / row[1]
    for _ in range(24):
        row = [x - pivot * y for x, y in zip(row, _ROW)]
    table: dict = {}
    for i in range(1500):
        key = (i & 7, i % 5)
        table[key] = table.get(key, 0) + i * i
    elapsed = perf_counter() - t0
    if was_enabled:
        gc.enable()
    return elapsed


class HostClock:
    """Samples ``probe`` every ``interval`` seconds between ``start`` and ``stop``."""

    def __init__(self, interval: float = PASS_INTERVAL_S) -> None:
        self.interval = interval
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(probe())
        self.spent += perf_counter() - t0

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        """Stop sampling; one last sample keeps a short pass from having none."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(probe())

    def speed(self) -> float:
        """Mean host speed over the samples, relative to the reference host."""
        return statistics.fmean(PROBE_REF_S / p for p in self.samples)

    def to_reference(self, seconds: float) -> float:
        return seconds * self.speed()
