"""Timing in probe-scaled seconds, which removes most of the machine's drift.

On a shared 2-vCPU machine the speed of a fixed loop drifts by up to 2x
over seconds to minutes, which no repeat count inside one run averages
away.  So every timed call is bracketed by runs of a fixed numpy probe loop,
and long calls are also interrupted every ``INTERVAL`` seconds by a timer
signal that runs the probe once more.  The probe's own time is subtracted
from the call's, and the rest is scaled by ``PROBE_REF_S / mean(probe)``:
the result is the call's time on a machine where the probe takes
``PROBE_REF_S``.  Raw wall times are kept alongside.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

PROBE_REF_S = 0.015
INTERVAL = 0.5

_X = np.linspace(1.0, 2.0, 800)


def probe_s() -> float:
    """Seconds for a fixed loop of small numpy operations, like a solver step's."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(1000):
            y = np.diff(_X * _X) / _X[1:]
            float(np.max(np.abs(np.sqrt(y * y + 1.0))))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(seconds: float, probes) -> float:
    return seconds * PROBE_REF_S / statistics.fmean(probes)


class Meter:
    """Times calls in probe-scaled seconds.

    ``probes`` keeps every probe taken and ``pauses`` the (start, end)
    ``perf_counter`` interval of every probe that interrupted a call.
    """

    def __init__(self):
        self.probes: list[float] = []
        self.pauses: list[tuple[float, float]] = []
        self._taken: list[float] | None = None
        self._stolen = 0.0
        signal.signal(signal.SIGALRM, self._on_timer)

    def _on_timer(self, signum, frame):
        if self._taken is None:
            return
        start = time.perf_counter()
        self._taken.append(probe_s())
        end = time.perf_counter()
        self._stolen += end - start
        self.pauses.append((start, end))

    def measure(self, fn, *args, interrupt: bool = True):
        """Return ``(result, wall_s, scaled_s)`` for ``fn(*args)``.

        With ``interrupt=False`` only the bracketing probes run, for calls
        that wait on another process pinned to the same CPU.
        """
        taken = [probe_s()]
        self._stolen = 0.0
        self._taken = taken
        if interrupt:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = time.perf_counter() - start
            self._taken = None
        taken.append(probe_s())
        self.probes.extend(taken)
        busy = wall - self._stolen
        return result, busy, scaled(busy, taken)
