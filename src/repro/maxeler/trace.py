"""Simulation tracing: a per-cycle event log for dataflow designs.

MaxJ's behavioural simulator lets developers watch streams cycle by cycle
(§III-C credits it with most of the debugging productivity).  This module
adds the equivalent to the tick simulator: a :class:`TraceRecorder`
observes a design and records, per cycle, which kernels progressed and
stream occupancies, renderable as a text waveform for debugging.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .manager import Manager
from .simulator import Simulator

__all__ = ["CycleEvent", "TraceRecorder"]


@dataclass(frozen=True)
class CycleEvent:
    """Snapshot of one simulated cycle."""

    cycle: int
    active_kernels: tuple[str, ...]
    stream_depths: dict[str, int]


@dataclass
class TraceRecorder:
    """Wraps a :class:`Simulator` and records per-cycle activity.

    Use as a drop-in: ``rec = TraceRecorder(manager); rec.run(...)``.
    Memory-bounded: keeps the last ``max_events`` cycles.
    """

    manager: Manager
    max_events: int = 10_000
    watch_streams: tuple[str, ...] = ()
    events: list[CycleEvent] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.simulator = Simulator(self.manager)
        self._prev_active: dict[str, int] = {}

    def _snapshot(self) -> None:
        active = tuple(
            k.name
            for k in self.manager.kernels.values()
            if k.total_cycles and k.active_cycles
            and self._was_active_this_cycle(k)
        )
        streams = {
            name: len(s)
            for name, s in self.manager.streams.items()
            if not self.watch_streams or name in self.watch_streams
        }
        self.events.append(
            CycleEvent(
                cycle=self.simulator.cycles,
                active_kernels=active,
                stream_depths=streams,
            )
        )
        if len(self.events) > self.max_events:
            del self.events[0 : len(self.events) - self.max_events]

    def _was_active_this_cycle(self, kernel) -> bool:
        # active count equals total count only while the kernel has never
        # stalled; track per-cycle deltas instead
        prev = self._prev_active.get(kernel.name, 0)
        now = kernel.active_cycles
        self._prev_active[kernel.name] = now
        return now > prev

    def attach(self) -> "TraceRecorder":
        """Register on ``simulator.observers`` — idempotent: a recorder
        already attached stays attached *once*, so repeated ``attach()``
        (or an ``attach()`` followed by :meth:`run`, which attaches too)
        never double-counts events.  Resets the per-kernel activity
        baseline to the current counters."""
        self._prev_active = {
            k.name: k.active_cycles for k in self.manager.kernels.values()
        }
        if self not in self.simulator.observers:
            self.simulator.observers.append(self)
        return self

    def detach(self) -> None:
        """Unregister from ``simulator.observers``; a no-op when not
        attached (idempotent, mirroring :meth:`attach`)."""
        if self in self.simulator.observers:
            self.simulator.observers.remove(self)

    def run(self, until=None, max_cycles: int | None = None):
        """Run the wrapped simulator, snapshotting after every cycle.

        The recorder attaches itself as a simulator observer (idempotently
        — a manual :meth:`attach` beforehand is safe) and detaches after
        the run.  Scalar ticks snapshot one event per cycle; batched
        chunks expand into one synthesized event per fast-forwarded cycle
        (stream depths show the post-chunk state — interior depths are not
        materialized by the vectorized path).
        """
        self.attach()
        try:
            return self.simulator.run(until=until, max_cycles=max_cycles)
        finally:
            self.detach()

    # -- simulator observer hooks -------------------------------------------
    def on_cycle(self, sim, progressed: bool) -> None:
        self._snapshot()

    def on_chunk(self, sim, n: int, plans) -> None:
        # every kernel in a chunk was uniformly active (or uniformly idle)
        # for all n cycles, so one activity tuple covers the whole window
        active = tuple(
            kernel.name for kernel, plan in plans if plan.is_active
        )
        for kernel in self.manager.kernels.values():
            self._prev_active[kernel.name] = kernel.active_cycles
        streams = {
            name: len(s)
            for name, s in self.manager.streams.items()
            if not self.watch_streams or name in self.watch_streams
        }
        first = sim.cycles - n + 1
        self.events.extend(
            CycleEvent(
                cycle=first + t,
                active_kernels=active,
                stream_depths=streams,
            )
            for t in range(n)
        )
        if len(self.events) > self.max_events:
            del self.events[0 : len(self.events) - self.max_events]

    # -- rendering ----------------------------------------------------------
    def waveform(self, last: int = 40) -> str:
        """A text waveform of the last *last* cycles: one row per kernel,
        ``#`` for active cycles, ``.`` for stalls."""
        events = self.events[-last:]
        if not events:
            return "(no trace)"
        names = sorted(self.manager.kernels)
        width = max(len(n) for n in names)
        lines = [
            " " * width
            + " "
            + "".join(str(e.cycle % 10) for e in events)
        ]
        for name in names:
            row = "".join(
                "#" if name in e.active_kernels else "." for e in events
            )
            lines.append(f"{name:>{width}s} {row}")
        return "\n".join(lines)

    def utilization(self) -> dict[str, float]:
        """Per-kernel active fraction over the recorded window."""
        if not self.events:
            return {}
        out = {}
        for name in self.manager.kernels:
            active = sum(1 for e in self.events if name in e.active_kernels)
            out[name] = active / len(self.events)
        return out

    def peak_depths(self) -> dict[str, int]:
        """Maximum observed occupancy per watched stream (FIFO sizing)."""
        peaks: dict[str, int] = {}
        for e in self.events:
            for name, depth in e.stream_depths.items():
                peaks[name] = max(peaks.get(name, 0), depth)
        return peaks
