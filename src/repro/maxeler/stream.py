"""Typed streams: the edges of a dataflow graph.

A :class:`Stream` is a bounded FIFO connecting exactly one producer kernel
to one consumer kernel (or the host).  Kernels interact with streams once
per tick: push at most one element, pop at most one element.  A full stream
exerts *back-pressure* — the producer must check :meth:`Stream.can_push`
and stall otherwise, exactly like a MaxJ stream with a full FIFO.

The storage is a NumPy ring buffer of object references, so the tick
engine's batched chunks (:mod:`repro.maxeler.simulator`) can move whole
runs of elements per Python call through :meth:`push_many` /
:meth:`pop_many`, while the one-element API serves scalar ticks.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..core.exceptions import SimulationError

__all__ = ["Stream"]

#: initial ring size for unbounded (host-side) streams
_INITIAL_RING = 16


class Stream:
    """A bounded single-producer single-consumer FIFO edge.

    Parameters
    ----------
    name:
        Diagnostic label (shows up in simulator error messages).
    capacity:
        Maximum queued elements; ``None`` = unbounded (host-side buffers).
    """

    def __init__(self, name: str, capacity: int | None = 16):
        if capacity is not None and capacity < 1:
            raise SimulationError(f"stream {name!r}: capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self._ring = np.empty(capacity or _INITIAL_RING, dtype=object)
        self._head = 0  # index of the oldest element
        self._size = 0
        #: lifetime counters for utilization accounting
        self.total_pushed = 0
        self.total_popped = 0

    def __len__(self) -> int:
        return self._size

    @property
    def empty(self) -> bool:
        return self._size == 0

    @property
    def full(self) -> bool:
        return self.capacity is not None and self._size >= self.capacity

    def can_push(self) -> bool:
        """Producer-side back-pressure check."""
        return not self.full

    def can_pop(self) -> bool:
        """Consumer-side data-availability check."""
        return self._size > 0

    # -- ring bookkeeping --------------------------------------------------
    def _grow(self, needed: int) -> None:
        """Resize an unbounded ring to hold at least *needed* elements."""
        new_cap = max(len(self._ring) * 2, needed, _INITIAL_RING)
        fresh = np.empty(new_cap, dtype=object)
        idx = (self._head + np.arange(self._size)) % len(self._ring)
        fresh[: self._size] = self._ring[idx]
        self._ring = fresh
        self._head = 0

    def _slots(self, start: int, count: int) -> np.ndarray:
        return (self._head + start + np.arange(count)) % len(self._ring)

    # -- scalar API --------------------------------------------------------
    def push(self, value: Any) -> None:
        """Enqueue one element; raises on overflow (a kernel bug — hardware
        would drop data here)."""
        if self.full:
            raise SimulationError(
                f"stream {self.name!r} overflow (capacity {self.capacity})"
            )
        if self._size >= len(self._ring):
            self._grow(self._size + 1)
        self._ring[(self._head + self._size) % len(self._ring)] = value
        self._size += 1
        self.total_pushed += 1

    def pop(self) -> Any:
        """Dequeue one element; raises on underflow."""
        if self._size == 0:
            raise SimulationError(f"stream {self.name!r} underflow")
        value = self._ring[self._head]
        self._ring[self._head] = None  # release the reference
        self._head = (self._head + 1) % len(self._ring)
        self._size -= 1
        self.total_popped += 1
        return value

    def peek(self) -> Any:
        """Front element without consuming it."""
        if self._size == 0:
            raise SimulationError(f"stream {self.name!r} peek on empty")
        return self._ring[self._head]

    # -- bulk API (the batched chunks' transport) ---------------------------
    def push_many(self, values: Sequence[Any]) -> None:
        """Enqueue a chunk of elements in order (bulk :meth:`push`)."""
        count = len(values)
        if count == 0:
            return
        if self.capacity is not None and self._size + count > self.capacity:
            raise SimulationError(
                f"stream {self.name!r} overflow: {count} pushes into "
                f"{self.capacity - self._size} free slots"
            )
        if self._size + count > len(self._ring):
            self._grow(self._size + count)
        idx = self._slots(self._size, count)
        buf = np.empty(count, dtype=object)
        buf[:] = list(values)
        self._ring[idx] = buf
        self._size += count
        self.total_pushed += count

    def pop_many(self, count: int) -> list[Any]:
        """Dequeue a chunk of *count* elements (bulk :meth:`pop`)."""
        if count == 0:
            return []
        if count > self._size:
            raise SimulationError(
                f"stream {self.name!r} underflow: {count} pops from "
                f"{self._size} queued"
            )
        idx = self._slots(0, count)
        out = self._ring[idx].tolist()
        self._ring[idx] = None
        self._head = (self._head + count) % len(self._ring)
        self._size -= count
        self.total_popped += count
        return out

    def peek_many(self, count: int | None = None) -> list[Any]:
        """The first *count* queued elements (default: all), not consumed."""
        count = self._size if count is None else min(count, self._size)
        if count == 0:
            return []
        return self._ring[self._slots(0, count)].tolist()

    def drain(self) -> list[Any]:
        """Pop everything (host-side collection)."""
        return self.pop_many(self._size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cap = "inf" if self.capacity is None else self.capacity
        return f"Stream({self.name!r}, {self._size}/{cap})"
