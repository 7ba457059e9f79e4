"""Host seconds, scaled to a reference speed of the host.

The shared host this benchmark runs on changes speed by up to 1.5x, for a
few seconds to minutes at a time and not in step across its vCPUs.  CPU
time slows with wall time, so no estimator over a run removes it.

While running, :class:`HostClock` pins the process (and the children it
starts) to one vCPU.  Every ``INTERVAL_S`` a ``SIGALRM`` handler times a
fixed snippet of interpreter work inside the measured code.  A child
process started by the benchmark does the same when ``PROBES_ENV`` names a
file, and the parent's own timer pauses while it waits.  ``perf_counter``
is monotonic across processes, so a child's probes line up with the
parent's marks.

A timed region's seconds, minus the probe time inside it, are multiplied
by ``REFERENCE_S`` over the snippet's median time around it.  The snippet
is benchmark code that no change to the program touches, so a slower
program still shows in full.  This module imports only the standard
library, so a probed child starts as cold as an unprobed one.
"""

from __future__ import annotations

import json
import os
import signal
import time
from contextlib import contextmanager
from pathlib import Path

#: the environment variable that asks a child to probe into a file
PROBES_ENV = "PERFBENCH_PROBES"


def snippet() -> float:
    """Seconds of a fixed piece of interpreter work."""
    t0 = time.perf_counter()
    x = 0
    for k in range(20000):
        x += k * k
    return time.perf_counter() - t0


class HostClock:
    """Marks time and scales it by the host's speed (see module docstring)."""

    #: the snippet's time at the reference speed: the fast state of the
    #: 2-vCPU host the benchmark was written on
    REFERENCE_S = 1.2e-3
    INTERVAL_S = 0.05
    #: probes this close to a timed region describe its speed
    WINDOW_S = 0.15

    def __init__(self):
        #: (start, seconds) of every probe
        self.probes: list[tuple[float, float]] = []
        self.probe_seconds = 0.0
        self.running = False

    def _probe(self, *_) -> None:
        t0 = time.perf_counter()
        dt = snippet()
        self.probes.append((t0, dt))
        self.probe_seconds += dt

    def start(self, pin: bool = True) -> None:
        if pin:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        signal.signal(signal.SIGALRM, self._probe)
        self.running = True
        self._arm()

    def _arm(self, interval: float | None = None) -> None:
        interval = self.INTERVAL_S if interval is None else interval
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self) -> None:
        self._arm(0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.running = False

    @contextmanager
    def paused(self):
        """No probes in this process meanwhile (a child probes itself)."""
        if self.running:
            self._arm(0)
        try:
            yield
        finally:
            if self.running:
                self._arm()

    def mark(self) -> tuple[float, float]:
        """The time now, and the probe time spent so far."""
        return time.perf_counter(), self.probe_seconds

    def save(self, path: str) -> None:
        """Stop, and write the probes for the parent (child side)."""
        self.stop()
        Path(path).write_text(json.dumps(
            {"probes": self.probes, "probe_seconds": self.probe_seconds}
        ))

    def merge(self, path: Path, end: tuple[float, float]) -> tuple[float, float]:
        """Take in a child's probes; returns *end* with its probe time."""
        if not path.exists():
            return end
        data = json.loads(path.read_text())
        path.unlink()
        self.probes.extend(tuple(p) for p in data["probes"])
        self.probes.sort()
        return end[0], end[1] + data["probe_seconds"]

    def scaled(self, start: tuple[float, float], end: tuple[float, float]) -> float:
        """Seconds between two marks, without probes, at the reference speed
        (as measured when nothing was probed)."""
        (t0, p0), (t1, p1) = start, end
        seconds = (t1 - t0) - (p1 - p0)
        near = [s for t, s in self.probes
                if t0 - self.WINDOW_S <= t <= t1 + self.WINDOW_S]
        if not near and self.probes:
            near = [min(self.probes, key=lambda probe: abs(probe[0] - t0))[1]]
        if not near:
            return seconds
        near.sort()
        mid = len(near) // 2
        median = near[mid] if len(near) % 2 else (near[mid - 1] + near[mid]) / 2
        return seconds * self.REFERENCE_S / median
