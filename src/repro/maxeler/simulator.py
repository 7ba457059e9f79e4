"""The tick engine: cycle-accurate execution of a composed design.

Each simulated clock cycle ticks every kernel once, in registration order.
Because streams are registered FIFOs, intra-cycle evaluation order only
affects latency by at most one cycle per edge, matching the registered
semantics of real MaxJ designs.  The simulator tracks total cycles, detects
quiescence (no kernel progressed and none has pending internal work) and
deadlock (no progress while work is still pending).

The engine fast-forwards *uniform phases*: when every kernel publishes a
:class:`~repro.maxeler.batch.BatchPlan` proving one-element-per-cycle
behaviour, a chunk of ``n`` cycles runs as a handful of vectorized
sub-activity calls.  The chunk size is bounded by stream occupancy, the
free space of every stream whose consumer is outside the chunk, every
plan's phase length, the remaining cycle budget and the ``until``
condition's flip horizon, so the observable state at every chunk
boundary — stream contents, kernel state, cycle and utilization counters
— is bit-identical to scalar ticking.  A *transit edge* (producer and
consumer both in the chunk) holds a constant occupancy, so its FIFO depth
does not bound the chunk; an end-of-chunk occupancy check proves it.
Anywhere a plan cannot be proven (ramp-up, stalls, drains,
data-dependent routing), the engine falls back to the scalar reference,
one :meth:`Kernel.tick` per kernel per cycle, keeping quiescence/deadlock
detection semantics unchanged, and counts the fallback with its reason
(``sim.plan_rejects.<reason>``).  :func:`scalar_reference` turns chunk
planning off so tests and benchmarks can compare the engine against that
reference.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from ..core.exceptions import SimulationError
from ..telemetry import context as _telemetry
from .batch import BatchOp, PushClaim
from .manager import Manager

__all__ = ["Simulator", "SimulationResult", "KernelStats", "scalar_reference"]

#: chunks below this size are not worth the planning overhead
MIN_CHUNK = 4
#: a transit edge bounds a chunk at ``max(capacity - len, TRANSIT_CHUNK)``
#: cycles: long enough to amortize planning, short enough to keep the
#: elements live in one chunk few and a transit edge's ring small (it
#: grows to hold up to ``capacity + TRANSIT_CHUNK`` elements, rounded up
#: by the ring's doubling, and keeps that size after the first long chunk)
TRANSIT_CHUNK = 1024


@dataclass
class KernelStats:
    """Per-kernel performance counters for one simulation run."""

    name: str
    active_cycles: int
    total_cycles: int
    batched_cycles: int  #: cycles executed through the vectorized path
    elements_in: int  #: elements popped from this kernel's input streams
    elements_out: int  #: elements pushed to this kernel's output streams
    wall_ns: int  #: host wall-clock attributed to this kernel

    @property
    def utilization(self) -> float:
        return self.active_cycles / self.total_cycles if self.total_cycles else 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "active_cycles": self.active_cycles,
            "total_cycles": self.total_cycles,
            "batched_cycles": self.batched_cycles,
            "utilization": round(self.utilization, 6),
            "elements_in": self.elements_in,
            "elements_out": self.elements_out,
            "wall_ns": self.wall_ns,
        }


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    cycles: int
    quiesced: bool
    kernel_stats: dict[str, KernelStats] = field(default_factory=dict)

    def wall_time_ns(self, clock_mhz: float) -> float:
        """Convert cycle count to nanoseconds at *clock_mhz*."""
        return self.cycles * 1e3 / clock_mhz


class Simulator:
    """Runs a frozen :class:`~repro.maxeler.manager.Manager` design."""

    def __init__(self, manager: Manager, max_cycles: int = 10_000_000):
        self.manager = manager
        self.max_cycles = max_cycles
        self.cycles = 0

    def _pending_work(self) -> bool:
        """True when any kernel has internal state or any internal stream
        holds data (host-side streams excluded: the host decides when to
        drain them)."""
        for kernel in self.manager.kernels.values():
            if not kernel.idle:
                return True
        for name, stream in self.manager.streams.items():
            if name.startswith("host->") or name.endswith("->host"):
                continue
            if not stream.empty:
                return True
        return False

    def run(
        self,
        until: Callable[[], bool] | None = None,
        max_cycles: int | None = None,
    ) -> SimulationResult:
        """Tick until *until()* is satisfied, or quiescence when no
        predicate is given.

        *max_cycles* is an exact inclusive budget: a run needing exactly
        that many cycles completes; one needing more raises with exactly
        ``max_cycles`` cycles consumed (every tick — including idle probe
        cycles — is charged).

        Raises :class:`SimulationError` on deadlock (two consecutive idle
        cycles with work pending or a predicate unsatisfied) and on
        cycle-budget exhaustion.
        """
        tel = _telemetry.active()
        if tel is None or tel.tracer is None:
            return self._run(until, max_cycles, tel)
        tracer = tel.tracer
        start = self.cycles
        tracer.begin("kernel.run", cat="sim")
        try:
            result = self._run(until, max_cycles, tel)
        except BaseException:
            tracer.end(cycles=self.cycles - start, aborted=True)
            raise
        tracer.end(cycles=self.cycles - start)
        return result

    def _run(self, until, max_cycles, tel) -> SimulationResult:
        budget = max_cycles if max_cycles is not None else self.max_cycles
        kernels = list(self.manager.kernels.values())
        start = self.cycles
        idle_streak = 0
        # telemetry state, hoisted so the disabled-path loop cost is zero
        metrics = tel.metrics if tel is not None else None
        tracer = tel.tracer if tel is not None else None
        if metrics is not None:
            # eagerly create the core cycle counters so a snapshot always
            # reports them (a stall-free run still shows 0 stall cycles)
            metrics.counter("sim.stall_cycles")
            metrics.counter("sim.cycles.scalar")
            metrics.counter("sim.cycles.batched")
        seg_cycles = None  # cycle count when the open scalar-segment span began
        try:
            while True:
                if until is not None and until():
                    return self._result(quiesced=False)
                if idle_streak == 0:
                    chunk = self._plan_chunk(
                        kernels, until, budget - (self.cycles - start)
                    )
                    if not isinstance(chunk, str):
                        if tracer is not None and seg_cycles is not None:
                            tracer.end(cycles=self.cycles - seg_cycles)
                            seg_cycles = None
                        self._run_chunk(*chunk)
                        continue
                    if metrics is not None:
                        metrics.counter("sim.plan_rejects").inc()
                        metrics.counter(f"sim.plan_rejects.{chunk}").inc()
                elif metrics is not None:
                    # the deadlock probe ticks scalar without planning a
                    # chunk: its own reason, outside the reject total
                    metrics.counter("sim.plan_rejects.idle_streak").inc()
                if self.cycles - start >= budget:
                    raise SimulationError(
                        f"simulation exceeded {budget} cycles without completing"
                    )
                if tracer is not None and seg_cycles is None:
                    tracer.begin("segment.scalar", cat="sim")
                    seg_cycles = self.cycles
                progressed = self._tick_all(kernels)
                self.cycles += 1
                if metrics is not None:
                    metrics.counter("sim.cycles.scalar").inc()
                    if not progressed:
                        metrics.counter("sim.stall_cycles").inc()
                if progressed:
                    idle_streak = 0
                    continue
                if until is None and not self._pending_work():
                    return self._result(quiesced=True)
                # one idle cycle can be legal (e.g. bubble); two in a row
                # with the run still unfinished is a deadlock
                idle_streak += 1
                if idle_streak >= 2:
                    raise SimulationError(
                        f"deadlock after {self.cycles} cycles in design "
                        f"{self.manager.name!r}"
                    )
        finally:
            if tracer is not None and seg_cycles is not None:
                tracer.end(cycles=self.cycles - seg_cycles)

    def _tick_all(self, kernels) -> bool:
        progressed = False
        clock = time.perf_counter_ns
        for kernel in kernels:
            t0 = clock()
            if kernel.tick():
                progressed = True
            kernel.wall_ns += clock() - t0
        return progressed

    # -- chunk planning ----------------------------------------------------
    def _plan_chunk(self, kernels, until, budget_left: int):
        """Assemble a provably-safe chunk: collected plans, a dependency
        order over their sub-activities, the chunk size and the chunk's
        transit edges.  Returns the reason as a string whenever exact
        scalar ticking is required instead."""
        if budget_left < MIN_CHUNK:
            return "budget"
        n = budget_left
        if until is not None:
            horizon = getattr(until, "min_cycles_to_flip", None)
            if horizon is None:
                return "horizon"  # opaque predicate: cannot bound overshoot
            n = min(n, horizon())
            if n < MIN_CHUNK:
                return "horizon"

        ctx: dict = {}
        plans: list[tuple] = []
        ops: list[BatchOp] = []
        producer: dict = {}
        consumer: dict = {}
        for kidx, kernel in enumerate(kernels):
            plan = kernel.batch_plan(ctx)
            if plan is None:
                return f"no_plan.{kernel.name}"
            plans.append((kernel, plan))
            if plan.cycles is not None:
                n = min(n, plan.cycles)
                if n < MIN_CHUNK:
                    return "quota"
            prev = None
            for op in plan.ops:
                op._kernel = kernel
                op._kidx = kidx
                op._prev = prev
                prev = op
                ops.append(op)
                for port in op.pushes:
                    stream = kernel.outputs[port]
                    if stream in producer:
                        return "cycle"  # two pushers: no single edge order
                    producer[stream] = op
                    claim = op.claims.get(port)
                    ctx[stream] = claim if claim is not None else PushClaim()
                for port in op.pops:
                    stream = kernel.inputs[port]
                    if stream in consumer:
                        return "cycle"  # two poppers: no single edge order
                    consumer[stream] = op
        if not ops:
            return "idle"

        # a sensitive port must see no in-chunk traffic from other plans
        for kernel, plan in plans:
            for port in plan.sensitive:
                stream = kernel.inputs.get(port)
                if stream is not None and stream in producer:
                    return "sensitive"
                stream = kernel.outputs.get(port)
                if stream is not None and stream in consumer:
                    return "sensitive"

        # stream feasibility.  A consumer without an in-chunk producer is
        # bounded by occupancy.  A *transit edge* (producer and consumer
        # both in the chunk) moves one element in and one out per cycle,
        # so its occupancy is constant: a forward edge needs one free slot
        # (the producer pushes first each scalar cycle), a backward edge
        # one queued element (the consumer pops first), and neither is
        # bounded by its depth.  Every other pushed stream must fit the
        # whole chunk in its free space.
        transit = []
        for stream, op in consumer.items():
            prod = producer.get(stream)
            if prod is None:
                n = min(n, len(stream))
            elif prod._kidx > op._kidx:
                if len(stream) < 1:
                    return "occupancy"
                transit.append(stream)
            else:
                if stream.full:
                    return "headroom"
                transit.append(stream)
        if n < MIN_CHUNK:
            return "occupancy"
        for stream in producer:
            if stream.capacity is not None:
                free = stream.capacity - len(stream)
                if stream in consumer:
                    free = max(free, TRANSIT_CHUNK)
                n = min(n, free)
        if n < MIN_CHUNK:
            return "headroom"

        order = _toposort(ops, producer, consumer)
        if order is None:
            return "cycle"
        for kernel, plan in plans:
            if plan.validate is not None and not plan.validate(n):
                return "validate"
        return plans, order, n, transit

    def _run_chunk(self, plans, order, n: int, transit) -> None:
        tel = _telemetry.active()
        tracer = tel.tracer if tel is not None else None
        if tracer is not None:
            tracer.begin("segment.batched", cat="sim", cycles=n)
        # a transit edge may hold up to n extra elements between its
        # producer's and its consumer's sub-activity: lift its push bound
        # for the chunk, and prove afterwards that its occupancy is back
        # where it started (so no scalar cycle could have overflowed it)
        held = [(stream, len(stream), stream.capacity) for stream in transit]
        clock = time.perf_counter_ns
        try:
            for stream in transit:
                stream.capacity = None
            for op in order:
                t0 = clock()
                op.run(n)
                op._kernel.wall_ns += clock() - t0
        finally:
            for stream, _, capacity in held:
                stream.capacity = capacity
        for stream, before, _ in held:
            if len(stream) != before:
                raise SimulationError(
                    f"stream {stream.name!r}: transit edge holds "
                    f"{len(stream)} elements after a {n}-cycle chunk, "
                    f"not {before}"
                )
        for kernel, plan in plans:
            kernel._charge(n, plan.is_active)
        self.cycles += n
        if tel is not None:
            m = tel.metrics
            m.counter("sim.chunks").inc()
            m.counter("sim.cycles.batched").inc(n)
            m.histogram("sim.chunk_cycles").observe(n)
            # stream occupancy sampled at chunk boundaries (never per push
            # — that is the hot path the batched engine exists to avoid)
            for name, stream in self.manager.streams.items():
                m.gauge(f"stream.depth.{name}").set(len(stream))
        if tracer is not None:
            tracer.end()

    def stats(self) -> dict[str, KernelStats]:
        """Per-kernel performance counters accumulated so far."""
        return {
            k.name: KernelStats(
                name=k.name,
                active_cycles=k.active_cycles,
                total_cycles=k.total_cycles,
                batched_cycles=k.batched_cycles,
                elements_in=sum(s.total_popped for s in k.inputs.values()),
                elements_out=sum(s.total_pushed for s in k.outputs.values()),
                wall_ns=k.wall_ns,
            )
            for k in self.manager.kernels.values()
        }

    def _result(self, quiesced: bool) -> SimulationResult:
        return SimulationResult(
            cycles=self.cycles, quiesced=quiesced, kernel_stats=self.stats()
        )


@contextmanager
def scalar_reference() -> Iterator[None]:
    """Run every :class:`Simulator` on the scalar reference path inside
    the block: chunk planning is turned off, so each cycle is one
    :meth:`Kernel.tick` per kernel.  Equivalence tests and throughput
    benchmarks compare the engine against this path."""
    plan = Simulator._plan_chunk
    Simulator._plan_chunk = lambda self, kernels, until, budget_left: "forced"
    try:
        yield
    finally:
        Simulator._plan_chunk = plan


def _toposort(ops, producer, consumer):
    """Order sub-activities so every in-chunk producer runs before its
    consumer (plus each plan's own listed order); None on a cycle."""
    deps: dict[BatchOp, set] = {op: set() for op in ops}
    for stream, op in consumer.items():
        prod = producer.get(stream)
        if prod is not None:
            deps[op].add(prod)
    for op in ops:
        if op._prev is not None:
            deps[op].add(op._prev)
    order = []
    ready = [op for op, d in deps.items() if not d]
    done: set = set()
    while ready:
        op = ready.pop()
        order.append(op)
        done.add(op)
        for other, d in deps.items():
            if other not in done and op in d:
                d.discard(op)
                if not d:
                    ready.append(other)
    if len(order) != len(ops):
        return None  # dependency cycle: the phase is not linearizable
    return order
