"""The host's CPU speed, sampled while a run measures, and times scaled by it.

The benchmark shares a few cores of a host whose speed swings by up to 2x,
for a second or for minutes at a time.  A probe, a fixed piece of
pure-Python arithmetic on small lists (the kind of work the program does),
runs every ``INTERVAL_S`` from a SIGALRM handler, between the program's own
bytecodes in the same thread, so it sees the speed the program sees.  A
window of the run is then scaled to a fixed reference speed: each stretch of
the program's own time between two probes counts as

    stretch * REFERENCE_PROBE_S / (time of the probe that ends it)

and the probes themselves count not at all.  The reference is about the
fastest a probe ran on a 2-vCPU Intel Xeon host with Python 3.11, so there a
scaled time is close to the time on an unloaded host.  A fixed reference,
rather than each run's fastest probe, keeps the luck of one probe out of the
figures.
"""

from __future__ import annotations

import math
import signal
import time

PROBE_ITERATIONS = 60     # about 0.5 ms per probe
INTERVAL_S = 0.025        # about 2 % of the run goes to probes
REFERENCE_PROBE_S = 0.5e-3


def probe_kernel(n: int) -> list[float]:
    """The fixed work of one probe: n small matrix products and a sine."""
    a = [[1.0, 0.5, 0.25], [0.1, 0.9, 0.3], [0.2, 0.4, 0.8]]
    v = [1.0, 2.0, 3.0]
    for _ in range(n):
        b = [[sum(x * y for x, y in zip(row, col)) for col in zip(*a)]
             for row in a]
        s = math.sin(b[0][0] * 1e-3) + math.cos(b[1][1] * 1e-3)
        v = [v[0] * 0.5 + s, v[1] * 0.5, v[2] * 0.5]
    return v


class SpeedProbe:
    """Probe samples, as (perf_counter() at start, seconds), in time order."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def sample(self, *_signal_args) -> None:
        started = time.perf_counter()
        probe_kernel(PROBE_ITERATIONS)
        self.samples.append((started, time.perf_counter() - started))

    def start(self) -> None:
        """Sample every ``INTERVAL_S`` until ``stop``."""
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def fastest(self) -> float:
        return min(seconds for _, seconds in self.samples)

    def unprobed(self, started: float, ended: float) -> float:
        """Seconds from ``started`` to ``ended``, less the probes inside."""
        return ended - started - sum(s for t, s in self.samples
                                     if started <= t < ended)

    def scaled(self, started: float, ended: float) -> float:
        """``unprobed`` seconds at the reference speed.

        The stretch after the last probe takes that probe's speed.
        """
        inside = [(t, s) for t, s in self.samples if started <= t < ended]
        if not inside:
            raise ValueError("no probe inside the window to scale it by")
        total, previous = 0.0, started
        for t, seconds in inside:
            total += (t - previous) * REFERENCE_PROBE_S / seconds
            previous = t + seconds
        return total + (max(ended - previous, 0.0) * REFERENCE_PROBE_S
                        / inside[-1][1])
