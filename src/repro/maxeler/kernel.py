"""Dataflow kernels: the nodes of a MaxJ-like design.

A :class:`Kernel` owns named input and output :class:`~repro.maxeler.stream.
Stream` endpoints and advances one clock cycle per :meth:`Kernel.tick` call.
The contract per tick:

* pop at most one element from each input stream;
* push at most one element to each output stream;
* stall (do nothing) when required inputs are missing or outputs are full.

The scalar tick is the reference semantics.  :meth:`Kernel.batch_plan`
is the tick engine's fast-path contract (see :mod:`repro.maxeler.batch`):
a kernel in a *uniform phase* publishes the sub-activities the simulator
may fast-forward chunk-wise, interleaved with every other kernel.
Returning ``None`` (the default) always falls back to exact scalar
ticking.

A library of generic kernels used by the STREAM design is provided:
:class:`SourceKernel`, :class:`SinkKernel`, :class:`MapKernel`,
:class:`DelayKernel` (fixed-latency pipeline), :class:`MuxKernel`,
:class:`DemuxKernel`, and :class:`BinOpKernel`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Iterable

from ..core.exceptions import SimulationError
from .batch import IDLE_PLAN, UNSET, BatchOp, BatchPlan, PushClaim
from .stream import Stream

__all__ = [
    "Kernel",
    "SourceKernel",
    "SinkKernel",
    "MapKernel",
    "BinOpKernel",
    "DelayKernel",
    "MuxKernel",
    "DemuxKernel",
]


class Kernel:
    """Base class for dataflow kernels."""

    #: prefixes of the input ports that take PolyMem commands: the manager
    #: feeds them a :class:`~repro.maxeler.stream.CommandStream`
    COMMAND_PORTS: tuple[str, ...] = ()

    def __init__(self, name: str):
        self.name = name
        self.inputs: dict[str, Stream] = {}
        self.outputs: dict[str, Stream] = {}
        #: ticks in which the kernel made progress (for utilization stats)
        self.active_cycles = 0
        self.total_cycles = 0
        #: cycles executed through the batched fast path
        self.batched_cycles = 0
        #: wall-clock attributed to this kernel (simulator-filled, profile)
        self.wall_ns = 0

    # -- wiring -----------------------------------------------------------
    def bind_input(self, port: str, stream: Stream) -> None:
        """Attach *stream* to input *port*."""
        if port in self.inputs:
            raise SimulationError(f"{self.name}: input {port!r} already bound")
        self.inputs[port] = stream

    def bind_output(self, port: str, stream: Stream) -> None:
        """Attach *stream* to output *port*."""
        if port in self.outputs:
            raise SimulationError(f"{self.name}: output {port!r} already bound")
        self.outputs[port] = stream

    def require(self, *ports: str) -> None:
        """Assert all *ports* are bound (called by the manager at build)."""
        for port in ports:
            if port not in self.inputs and port not in self.outputs:
                raise SimulationError(
                    f"{self.name}: port {port!r} is not connected"
                )

    # -- execution ---------------------------------------------------------
    def tick(self) -> bool:
        """Advance one cycle; return True when progress was made."""
        self.total_cycles += 1
        progressed = self._tick()
        if progressed:
            self.active_cycles += 1
        return progressed

    def _tick(self) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def batch_plan(self, ctx: dict) -> BatchPlan | None:
        """Declare this kernel's current uniform phase for the batched
        engine, or ``None`` to force exact scalar ticking.  *ctx* maps
        streams already claimed by earlier-registered kernels' plans to
        their :class:`~repro.maxeler.batch.PushClaim`."""
        return None

    # plan helper: will elements flow on this input during a chunk?
    def _flows(self, stream: Stream, ctx: dict) -> bool:
        return stream in ctx or len(stream) > 0

    def _charge(self, n: int, active: bool) -> None:
        """Batched-path bookkeeping mirror of :meth:`tick`'s counters."""
        self.total_cycles += n
        if active:
            self.active_cycles += n
        self.batched_cycles += n

    @property
    def idle(self) -> bool:
        """True when the kernel has no internal work pending (used by the
        simulator's quiescence detection).  Kernels with internal state
        override this."""
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


class SourceKernel(Kernel):
    """Feeds a fixed sequence into its ``out`` stream, one element/cycle."""

    def __init__(self, name: str, values: Iterable[Any]):
        super().__init__(name)
        self._pending = deque(values)

    def _tick(self) -> bool:
        out = self.outputs["out"]
        if self._pending and out.can_push():
            out.push(self._pending.popleft())
            return True
        return False

    def _emit(self, n: int) -> None:
        out = self.outputs["out"]
        out.push_many([self._pending.popleft() for _ in range(n)])

    def batch_plan(self, ctx: dict) -> BatchPlan | None:
        if not self._pending:
            return IDLE_PLAN
        if self.outputs["out"].full:
            # a consumer's pops would un-stall us mid-chunk
            return BatchPlan(sensitive=("out",))
        op = BatchOp("emit", self._emit, pushes=("out",))
        return BatchPlan(cycles=len(self._pending), ops=[op])

    @property
    def exhausted(self) -> bool:
        return not self._pending

    @property
    def idle(self) -> bool:
        return self.exhausted


class SinkKernel(Kernel):
    """Collects everything arriving on its ``in`` stream."""

    def __init__(self, name: str):
        super().__init__(name)
        self.collected: list[Any] = []

    def _tick(self) -> bool:
        inp = self.inputs["in"]
        if inp.can_pop():
            self.collected.append(inp.pop())
            return True
        return False

    def _absorb(self, n: int) -> None:
        self.collected.extend(self.inputs["in"].pop_many(n))

    def batch_plan(self, ctx: dict) -> BatchPlan | None:
        if not self._flows(self.inputs["in"], ctx):
            return BatchPlan(sensitive=("in",))
        return BatchPlan(ops=[BatchOp("absorb", self._absorb, pops=("in",))])


class MapKernel(Kernel):
    """Applies a pointwise function: ``out = fn(in)``, one element/cycle."""

    def __init__(self, name: str, fn: Callable[[Any], Any]):
        super().__init__(name)
        self.fn = fn

    def _tick(self) -> bool:
        inp, out = self.inputs["in"], self.outputs["out"]
        if inp.can_pop() and out.can_push():
            out.push(self.fn(inp.pop()))
            return True
        return False

    def _apply(self, n: int) -> None:
        fn = self.fn
        values = self.inputs["in"].pop_many(n)
        self.outputs["out"].push_many([fn(v) for v in values])

    def batch_plan(self, ctx: dict) -> BatchPlan | None:
        if not self._flows(self.inputs["in"], ctx):
            return BatchPlan(sensitive=("in", "out"))
        if self.outputs["out"].full:
            return BatchPlan(sensitive=("in", "out"))
        op = BatchOp("apply", self._apply, pops=("in",), pushes=("out",))
        return BatchPlan(ops=[op])


class BinOpKernel(Kernel):
    """Combines two streams element-wise: ``out = fn(a, b)``."""

    def __init__(self, name: str, fn: Callable[[Any, Any], Any]):
        super().__init__(name)
        self.fn = fn

    def _tick(self) -> bool:
        a, b = self.inputs["a"], self.inputs["b"]
        out = self.outputs["out"]
        if a.can_pop() and b.can_pop() and out.can_push():
            out.push(self.fn(a.pop(), b.pop()))
            return True
        return False

    def _apply(self, n: int) -> None:
        fn = self.fn
        lhs = self.inputs["a"].pop_many(n)
        rhs = self.inputs["b"].pop_many(n)
        self.outputs["out"].push_many([fn(x, y) for x, y in zip(lhs, rhs)])

    def batch_plan(self, ctx: dict) -> BatchPlan | None:
        flowing = self._flows(self.inputs["a"], ctx) and self._flows(
            self.inputs["b"], ctx
        )
        if not flowing or self.outputs["out"].full:
            return BatchPlan(sensitive=("a", "b", "out"))
        op = BatchOp("apply", self._apply, pops=("a", "b"), pushes=("out",))
        return BatchPlan(ops=[op])


class DelayKernel(Kernel):
    """A fixed-latency pipeline: elements emerge *latency* cycles after
    entering (models MaxJ's stream offsets / BRAM read latency)."""

    def __init__(self, name: str, latency: int):
        super().__init__(name)
        if latency < 1:
            raise SimulationError(f"{name}: latency must be >= 1")
        self.latency = latency
        self._pipe: deque[tuple[int, Any]] = deque()
        self._now = 0
        self._stash: list[Any] = []

    def _tick(self) -> bool:
        inp, out = self.inputs["in"], self.outputs["out"]
        self._now += 1
        # an occupied pipeline advances every cycle — that is progress, or
        # the simulator would flag the latency wait as a deadlock
        progressed = bool(self._pipe)
        # retire the head element once it has aged `latency` cycles
        if self._pipe and self._pipe[0][0] + self.latency <= self._now:
            if out.can_push():
                out.push(self._pipe.popleft()[1])
        if inp.can_pop() and len(self._pipe) < self.latency:
            self._pipe.append((self._now, inp.pop()))
            progressed = True
        return progressed

    # -- batched sub-activities -------------------------------------------
    def _absorb(self, n: int) -> None:
        self._stash = self.inputs["in"].pop_many(n)

    def _emit_steady(self, n: int) -> None:
        # full pipe with consecutive stamps and an exactly-ripe head: the
        # combined (pipe + absorbed) sequence has consecutive stamps too,
        # so n cycles retire its first n elements and keep the last
        # `latency` with stamps reconstructed arithmetically.
        values = [v for _, v in self._pipe]
        values.extend(self._stash)
        self._stash = []
        self.outputs["out"].push_many(values[:n])
        first = self._now + 1 - self.latency
        self._now += n
        self._pipe = deque(
            (first + m, values[m]) for m in range(n, n + self.latency)
        )

    def _emit_drain(self, n: int) -> None:
        out = self.outputs["out"]
        out.push_many([self._pipe.popleft()[1] for _ in range(n)])
        self._now += n

    def _age(self, n: int) -> None:
        self._now += n

    def _ripe_prefix(self) -> int:
        """Length of the pipe prefix with consecutive stamps starting from
        an exactly-ripe head (each element retires one cycle after the
        previous)."""
        head_stamp = self._pipe[0][0]
        if head_stamp + self.latency != self._now + 1:
            return 0
        run = 0
        for stamp, _ in self._pipe:
            if stamp != head_stamp + run:
                break
            run += 1
        return run

    def batch_plan(self, ctx: dict) -> BatchPlan | None:
        inp, out = self.inputs["in"], self.outputs["out"]
        flowing = self._flows(inp, ctx)
        if not self._pipe:
            if flowing:
                return None  # ramp-up: scalar
            return BatchPlan(sensitive=("in",))
        if out.full:
            return None  # back-pressure stall: scalar keeps exact timing
        prefix = self._ripe_prefix()
        if flowing:
            if prefix == self.latency and len(self._pipe) == self.latency:
                ops = [
                    BatchOp("absorb", self._absorb, pops=("in",)),
                    BatchOp("emit", self._emit_steady, pushes=("out",)),
                ]
                return BatchPlan(ops=ops)
            return None  # filling / irregular stamps: scalar
        if prefix:
            op = BatchOp("emit", self._emit_drain, pushes=("out",))
            return BatchPlan(cycles=prefix, ops=[op], sensitive=("in",))
        # occupied but not yet ripe: pure aging still counts as progress
        wait = self._pipe[0][0] + self.latency - self._now - 1
        if wait < 1:
            return None
        op = BatchOp("age", self._age)
        return BatchPlan(cycles=wait, ops=[op], sensitive=("in",))

    @property
    def idle(self) -> bool:
        return not self._pipe


class MuxKernel(Kernel):
    """Selects one of N inputs per the ``select`` stream: Fig. 9's MUXes.

    Input ports are ``in0 .. in{N-1}`` plus ``select``; one select token
    routes one data element.
    """

    def __init__(self, name: str, n_inputs: int):
        super().__init__(name)
        self.n_inputs = n_inputs
        self._route_port: str | None = None

    def _tick(self) -> bool:
        sel_s = self.inputs["select"]
        out = self.outputs["out"]
        if not sel_s.can_pop() or not out.can_push():
            return False
        sel = sel_s.peek()
        if not 0 <= sel < self.n_inputs:
            raise SimulationError(f"{self.name}: select {sel} out of range")
        data = self.inputs[f"in{sel}"]
        if not data.can_pop():
            return False
        sel_s.pop()
        out.push(data.pop())
        return True

    def _route(self, n: int) -> None:
        self.inputs["select"].pop_many(n)
        values = self.inputs[self._route_port].pop_many(n)
        self.outputs["out"].push_many(values)

    def batch_plan(self, ctx: dict) -> BatchPlan | None:
        sel_s = self.inputs["select"]
        if not self._flows(sel_s, ctx):
            return BatchPlan(sensitive=("select",))
        resolved = _uniform_select(sel_s, ctx)
        if resolved is None:
            return None
        sel, bound = resolved
        if not 0 <= sel < self.n_inputs:
            return None
        port = f"in{sel}"
        data = self.inputs[port]
        if not self._flows(data, ctx):
            # selects merely queue while the routed input is silent
            return BatchPlan(sensitive=(port,))
        if self.outputs["out"].full:
            return None
        self._route_port = port
        claim = ctx.get(data) if not len(data) else None
        op = BatchOp(
            "route",
            self._route,
            pops=("select", port),
            pushes=("out",),
            claims={"out": claim or PushClaim()},
        )
        return BatchPlan(cycles=bound, ops=[op])


class DemuxKernel(Kernel):
    """Routes its input to one of N outputs per the ``select`` stream:
    Fig. 9's DEMUX.  Output ports are ``out0 .. out{N-1}``."""

    def __init__(self, name: str, n_outputs: int):
        super().__init__(name)
        self.n_outputs = n_outputs
        self._route_port: str | None = None

    def _tick(self) -> bool:
        sel_s, inp = self.inputs["select"], self.inputs["in"]
        if not sel_s.can_pop() or not inp.can_pop():
            return False
        sel = sel_s.peek()
        if not 0 <= sel < self.n_outputs:
            raise SimulationError(f"{self.name}: select {sel} out of range")
        out = self.outputs[f"out{sel}"]
        if not out.can_push():
            return False
        sel_s.pop()
        out.push(inp.pop())
        return True

    def _route(self, n: int) -> None:
        self.inputs["select"].pop_many(n)
        values = self.inputs["in"].pop_many(n)
        self.outputs[self._route_port].push_many(values)

    def batch_plan(self, ctx: dict) -> BatchPlan | None:
        sel_s, inp = self.inputs["select"], self.inputs["in"]
        if not self._flows(sel_s, ctx):
            return BatchPlan(sensitive=("select",))
        resolved = _uniform_select(sel_s, ctx)
        if resolved is None:
            return None
        sel, bound = resolved
        if not 0 <= sel < self.n_outputs:
            return None
        port = f"out{sel}"
        if not self._flows(inp, ctx):
            return BatchPlan(sensitive=("in",))
        if self.outputs[port].full:
            return None
        self._route_port = port
        claim = ctx.get(inp) if not len(inp) else None
        op = BatchOp(
            "route",
            self._route,
            pops=("select", "in"),
            pushes=(port,),
            claims={port: claim or PushClaim()},
        )
        return BatchPlan(cycles=bound, ops=[op])


def _uniform_select(sel_s: Stream, ctx: dict) -> tuple[Any, int | None] | None:
    """Resolve the single select value governing a chunk on *sel_s*.

    Returns ``(value, max_cycles)`` — ``max_cycles`` is ``None`` when a
    producer claims a known uniform value for the whole chunk, else the
    length of the queued prefix the plan may rely on — or ``None`` when no
    uniform value can be established.
    """
    claim = ctx.get(sel_s)
    queued = sel_s.peek_many()
    value = claim.value if claim is not None else UNSET
    bound: int | None = None
    if value is UNSET:
        if not len(queued):
            return None
        value = queued.item(0)
        # beyond the queued prefix the select values are unknown
        bound = len(queued)
    if (queued != value).any():
        return None
    return value, bound
