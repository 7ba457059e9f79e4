"""The batched tick engine's planning contract.

A kernel that can fast-forward publishes a :class:`BatchPlan` describing a
*uniform phase*: a window of cycles in which its externally observable
behaviour is one element per port per cycle, decomposed into
:class:`BatchOp` sub-activities.  The simulator collects plans from every
kernel (registration order), validates that a chunk of ``n`` cycles is
safe against stream occupancy and free space (an edge with both ends in
the chunk keeps a constant occupancy), orders the sub-activities along
the dataflow dependencies, and executes each as one vectorized call.

Why sub-activities instead of fast-forwarding whole kernels one after
another?  Feedback loops.  In Fig. 9's STREAM design the controller
consumes, mid-chunk, data the PolyMem kernel produces mid-chunk — and vice
versa.  No whole-kernel order can satisfy both, but the kernels'
*sub*-machines (command issue, pipeline retire, write drain, ...) form an
acyclic graph, because the only cycle-carrying dependency (read data
feeding writes) is broken by the pipeline latency slack each plan proves
it has.

The correctness argument lives in DESIGN.md ("Batched tick engine"); the
short form: a chunk is executed only when every plan guarantees exact
one-element-per-cycle progress for all ``n`` cycles, so per-cycle
interleaving is immaterial — FIFO order fixes which values meet which.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["UNSET", "PushClaim", "BatchOp", "BatchPlan", "IDLE_PLAN"]


class _Unset:
    """Sentinel: a claim with no statically-known uniform value."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "UNSET"


UNSET = _Unset()


@dataclass
class PushClaim:
    """What a planned push promises about the elements it will produce.

    ``value`` is the uniform element value when it is statically known at
    plan time (e.g. a controller pushing the same mux select every cycle) —
    downstream kernels use it to plan data-dependent routing.  ``anchors``
    lazily materializes the access anchors behind a command stream
    (``anchors(n) -> (kind, i[n], j[n])``) so the PolyMem kernel can prove
    read/write slot disjointness for the chunk before committing to it.
    """

    value: Any = UNSET
    anchors: Callable[[int], tuple] | None = None


@dataclass(eq=False)
class BatchOp:
    """One uniform sub-activity: pops exactly one element per cycle from
    each port in ``pops`` and pushes exactly one per cycle to each port in
    ``pushes``, for the whole chunk.  ``run(n)`` executes the n cycles in
    one vectorized call."""

    name: str
    run: Callable[[int], None]
    pops: tuple[str, ...] = ()
    pushes: tuple[str, ...] = ()
    claims: dict[str, PushClaim] = field(default_factory=dict)

    # engine-filled during planning (kernel, registration index, intra-
    # kernel predecessor) — not part of the kernel-facing contract
    def __post_init__(self) -> None:
        self._kernel = None
        self._kidx = -1
        self._prev: "BatchOp | None" = None


@dataclass
class BatchPlan:
    """A kernel's declaration of its current uniform phase.

    ``cycles`` bounds how long the phase is guaranteed to last (``None`` =
    unbounded; the chunk is capped by other kernels/streams).  ``ops`` is
    empty for a provably idle kernel.  ``sensitive`` lists input ports
    whose *silence* the plan assumes — if any other plan pushes to one of
    them, the chunk is abandoned (scalar fallback).  ``active`` states
    whether a scalar :meth:`Kernel.tick` would report progress each cycle
    of the phase (defaults to ``bool(ops)``), keeping the utilization
    counters bit-identical.  ``validate(n)``, when given, gets the final
    chunk size for a last safety check (e.g. memory-slot disjointness).
    """

    cycles: int | None = None
    ops: list[BatchOp] = field(default_factory=list)
    sensitive: tuple[str, ...] = ()
    active: bool | None = None
    validate: Callable[[int], bool] | None = None

    @property
    def is_active(self) -> bool:
        return bool(self.ops) if self.active is None else self.active


#: shared plan for kernels that are provably idle with no sensitivity
IDLE_PLAN = BatchPlan()
