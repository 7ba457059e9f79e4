"""Typed streams: the edges of a dataflow graph.

A :class:`Stream` is a bounded FIFO connecting exactly one producer kernel
to one consumer kernel (or the host).  Kernels interact with streams once
per tick: push at most one element, pop at most one element.  A full stream
exerts *back-pressure* — the producer must check :meth:`Stream.can_push`
and stall otherwise, exactly like a MaxJ stream with a full FIFO.

The storage is one typed NumPy array whose first axis is the FIFO: a
stream of lane vectors (Fig. 9's data ports) holds a ``(slots, lanes)``
``uint64`` array, a stream of select tokens an ``int64`` one, and any
other element (a host :class:`~repro.stream_bench.controller.Job`, a
modular pipeline bundle) one object slot each.  Elements are written at
a cursor that only moves forward; when it reaches the end, the queued
elements move to the front of a fresh array.  A slot is therefore never
written twice, so what :meth:`Stream.pop` and :meth:`Stream.pop_many`
return are views that no later push can change.  The tick engine's
batched chunks (:mod:`repro.maxeler.simulator`) move a whole ``(n, ...)``
block per call through :meth:`Stream.push_many` (one slice copy) and
:meth:`Stream.pop_many` (no copy), while the one-element API serves
scalar ticks.  A :class:`CommandStream` (a PolyMem command port) queues
:class:`~repro.core.plan.AccessBlock` s instead, so a block of commands
is one queue entry, not one Python object per command.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..core.exceptions import SimulationError
from ..core.plan import AccessBlock

__all__ = ["CommandStream", "Stream"]

#: initial slot count of unbounded (host-side) streams
_INITIAL_SLOTS = 16

#: the slot kind ``(dtype, row shape)`` holding any element
_OBJECTS = (np.dtype(object), ())
_INT64 = (np.dtype(np.int64), ())


def _kind(value) -> tuple[np.dtype, tuple]:
    """The slot kind that stores *value* unchanged: an array (a lane
    vector) fills one typed row, an int one ``int64`` slot, and anything
    else one object slot."""
    if isinstance(value, np.ndarray) and value.ndim and not value.dtype.hasobject:
        return value.dtype, value.shape
    if type(value) is np.int64 or (type(value) is int and -(1 << 63) <= value < 1 << 63):
        return _INT64
    return _OBJECTS


def _as_objects(block: np.ndarray) -> np.ndarray:
    """*block*'s elements one per object slot (ints as Python ints,
    rows as arrays of their own)."""
    out = np.empty(len(block), dtype=object)
    if block.ndim == 1:
        out[:] = block.tolist()
    else:
        for k, row in enumerate(block):
            out[k] = row.copy()
    return out


class Stream:
    """A bounded single-producer single-consumer FIFO edge.

    Parameters
    ----------
    name:
        Diagnostic label (shows up in simulator error messages).
    capacity:
        Maximum queued elements; ``None`` = unbounded (host-side buffers).

    A block of lane vectors goes in and comes out as one array:

    >>> import numpy as np
    >>> s = Stream("data", capacity=4)
    >>> s.push_many(np.arange(6, dtype=np.uint64).reshape(3, 2))
    >>> len(s)
    3
    >>> s.pop_many(2)
    array([[0, 1],
           [2, 3]], dtype=uint64)
    >>> s.pop()
    array([4, 5], dtype=uint64)
    """

    def __init__(self, name: str, capacity: int | None = 16):
        if capacity is not None and capacity < 1:
            raise SimulationError(f"stream {name!r}: capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        # the slots take their kind from the first element pushed
        self._slots = np.empty(capacity or _INITIAL_SLOTS, dtype=object)
        self._kind = _OBJECTS
        self._head = 0  # slot of the oldest element
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
        return self.capacity is None or self._size < self.capacity

    def can_pop(self) -> bool:
        """Consumer-side data-availability check."""
        return self._size > 0

    def _reserve(self, count: int, kind: tuple[np.dtype, tuple]) -> None:
        """Move the queued elements to the front of fresh slots of *kind*
        with room for *count* more.  The slot count doubles once the
        queue needs more than half of it.  A kind other than the queued
        elements' makes every slot an object slot, so no element is ever
        cast."""
        size = self._size
        if kind == _OBJECTS or (size and kind != self._kind):
            kind = _OBJECTS
        slots = len(self._slots)
        if 2 * (size + count) > slots:
            slots = max(2 * slots, size + count)
        fresh = np.empty((slots, *kind[1]), dtype=kind[0])
        if size:
            live = self._slots[self._head : self._head + size]
            fresh[:size] = live if kind == self._kind else _as_objects(live)
        self._slots, self._kind, self._head = fresh, kind, 0

    # -- scalar API --------------------------------------------------------
    def push(self, value: Any) -> None:
        """Enqueue one element; raises on overflow (a kernel bug — hardware
        would drop data here)."""
        size = self._size
        if self.capacity is not None and size >= self.capacity:
            raise SimulationError(
                f"stream {self.name!r} overflow (capacity {self.capacity})"
            )
        kind = self._kind
        if (size == 0 or kind is not _OBJECTS) and not (
            # the hot case: a lane vector into slots of lane vectors
            type(value) is np.ndarray
            and value.dtype is kind[0]
            and value.shape == kind[1]
        ):
            fits = _kind(value)
            if fits != kind:
                self._reserve(1, fits)
        if self._head + size >= len(self._slots):
            self._reserve(1, self._kind)
        self._slots[self._head + size] = value
        self._size = size + 1
        self.total_pushed += 1

    def peek(self) -> Any:
        """Front element without consuming it (a lane vector as a view,
        an int token as a Python int)."""
        if self._size == 0:
            raise SimulationError(f"stream {self.name!r} peek on empty")
        slots = self._slots
        return slots[self._head] if slots.ndim > 1 else slots.item(self._head)

    def pop(self) -> Any:
        """Dequeue one element; raises on underflow."""
        size = self._size - 1
        if size < 0:
            raise SimulationError(f"stream {self.name!r} underflow")
        slots = self._slots
        head = self._head
        value = slots[head] if slots.ndim > 1 else slots.item(head)
        self._head = head + 1
        self._size = size
        self.total_popped += 1
        return value

    # -- bulk API (the batched chunks' transport) ---------------------------
    def push_many(self, values: np.ndarray | Sequence[Any]) -> None:
        """Enqueue a chunk of elements in order (bulk :meth:`push`): an
        ``(n, ...)`` array is one block, any other sequence is pushed
        element by element."""
        count = len(values)
        if count == 0:
            return
        if self.capacity is not None and self._size + count > self.capacity:
            raise SimulationError(
                f"stream {self.name!r} overflow: {count} pushes into "
                f"{self.capacity - self._size} free slots"
            )
        if not isinstance(values, np.ndarray) or values.dtype.hasobject:
            for value in values:
                self.push(value)
            return
        kind = (values.dtype, values.shape[1:])
        retype = kind != self._kind and (self._size == 0 or self._kind is not _OBJECTS)
        if retype or self._head + self._size + count > len(self._slots):
            self._reserve(count, kind if retype else self._kind)
        if kind != self._kind:
            values = _as_objects(values)
        end = self._head + self._size
        self._slots[end : end + count] = values
        self._size += count
        self.total_pushed += count

    def peek_many(self, count: int | None = None) -> np.ndarray:
        """The first *count* queued elements (default: all) as one
        ``(count, ...)`` array, not consumed."""
        count = self._size if count is None else min(count, self._size)
        return self._slots[self._head : self._head + count]

    def pop_many(self, count: int) -> np.ndarray:
        """Dequeue a chunk of *count* elements as one ``(count, ...)``
        array (bulk :meth:`pop`)."""
        if count > self._size:
            raise SimulationError(
                f"stream {self.name!r} underflow: {count} pops from "
                f"{self._size} queued"
            )
        out = self.peek_many(count)
        self._head += count
        self._size -= count
        self.total_popped += count
        base = self.capacity or _INITIAL_SLOTS
        if self._size == 0 and len(self._slots) > base:
            # an emptied queue lets go of its grown slots (the views
            # handed out keep what they need alive)
            dtype, row = self._kind
            self._slots = np.empty((base, *row), dtype=dtype)
            self._head = 0
        return out

    def drain(self) -> np.ndarray:
        """Pop everything (host-side collection)."""
        return self.pop_many(self._size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cap = "inf" if self.capacity is None else self.capacity
        return f"Stream({self.name!r}, {self._size}/{cap})"


class CommandStream(Stream):
    """A FIFO of PolyMem commands, queued as one
    :class:`~repro.core.plan.AccessBlock` rather than in element slots.

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
        queue = block
        if self._size:
            queue = AccessBlock.concat([self.anchors(self._size), block])
        self._queue = queue
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
