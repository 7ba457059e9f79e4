"""Typed streams: the edges of a dataflow graph.

A :class:`Stream` is a bounded FIFO connecting exactly one producer kernel
to one consumer kernel (or the host).  Kernels interact with streams once
per tick: push at most one element, pop at most one element.  A full stream
exerts *back-pressure* — the producer must check :meth:`Stream.can_push`
and stall otherwise, exactly like a MaxJ stream with a full FIFO.

The storage is a NumPy ring buffer of object references, so the tick
engine's batched chunks (:mod:`repro.maxeler.simulator`) can move whole
runs of elements per Python call through :meth:`push_many` /
:meth:`pop_many`, while the one-element API serves scalar ticks.  A
:class:`CommandStream` (a PolyMem command port) queues
:class:`~repro.core.plan.AccessBlock` s instead, so a block of commands
is one queue entry, not one Python object per command.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..core.exceptions import SimulationError
from ..core.plan import AccessBlock

__all__ = ["CommandStream", "Stream"]

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


class CommandStream(Stream):
    """A FIFO of PolyMem commands, queued as one
    :class:`~repro.core.plan.AccessBlock` rather than a ring of objects.

    Every element is one command, the paper's ``(i, j, AccType[,
    DataIn])`` bundle: :meth:`push` / :meth:`push_many` take a block of
    any length, :meth:`pop` / :meth:`peek` hand a scalar tick one command
    as ``(AccessRequest, values_row | None)``, and :meth:`anchors` /
    :meth:`pop_many` return the first commands as one block, so the
    batched path builds no per-command object.
    """

    def __init__(self, name: str, capacity: int | None = 16):
        super().__init__(name, capacity)
        self._queue = AccessBlock((), (), ())  # commands from self._head on

    def push_many(self, block: AccessBlock) -> None:
        """Enqueue every command of *block*, in order."""
        if not isinstance(block, AccessBlock):
            raise SimulationError(
                f"stream {self.name!r} carries AccessBlocks, got "
                f"{type(block).__name__}"
            )
        if self.capacity is not None and self._size + len(block) > self.capacity:
            raise SimulationError(
                f"stream {self.name!r} overflow: {len(block)} pushes into "
                f"{self.capacity - self._size} free slots"
            )
        self._queue = AccessBlock.concat([self.anchors(self._size), block])
        self._head = 0
        self._size += len(block)
        self.total_pushed += len(block)

    push = push_many

    def anchors(self, count: int) -> AccessBlock:
        """The first *count* queued commands as one block, not consumed:
        a queued backlog's claim, in the form a producer's
        :attr:`~repro.maxeler.batch.PushClaim.anchors` returns."""
        if count > self._size:
            raise SimulationError(
                f"stream {self.name!r} underflow: {count} pops from "
                f"{self._size} queued"
            )
        return self._queue.sliced(self._head, self._head + count)

    def pop_many(self, count: int) -> AccessBlock:
        """Dequeue the first *count* commands as one block."""
        block = self.anchors(count)
        self._head += count
        self._size -= count
        self.total_popped += count
        return block

    def peek(self):
        """The front command as ``(AccessRequest, values_row | None)``."""
        if self._size == 0:
            raise SimulationError(f"stream {self.name!r} peek on empty")
        values = self._queue.values
        head = self._head
        return self._queue.request(head), None if values is None else values[head]

    def pop(self):
        command = self.peek()
        self.pop_many(1)
        return command
