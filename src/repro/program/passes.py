"""The pass pipeline: validate → coalesce → compile → segment.

:func:`compile_program` turns an :class:`~repro.program.ir.AccessProgram`
into a :class:`CompiledProgram`: the op list is validated, split into
*segments* at :class:`~repro.program.ir.Compute` /
:class:`~repro.program.ir.Barrier` boundaries, and within each segment
adjacent compatible access ops are coalesced into :class:`TraceStep`\\ s —
each one :class:`~repro.core.plan.AccessTrace` replayed whole by the
engine.

Coalescing only groups accesses in ways
:meth:`~repro.core.polymem.PolyMem.replay` proves bit-identical to
issuing the ops one trace each:

* an op with ``fuse=True`` joins the current group as a *parallel*
  stream of the same trace (distinct read port, or the trace's single
  write stream) — it must target the same memory and match the group's
  cycle count;
* consecutive unfused reads on the **same port / memory / stride**
  concatenate into one longer stream (equivalent to sequential replays:
  same cycles, stats, outputs, memory state and error behaviour — replay
  re-issues a failing cycle through ``step()``, whose errors carry no
  trace-relative index);
* consecutive unfused writes concatenate likewise;
* anything else — a write after reads, a port switch, a stride change, a
  different memory, any op after a fused group — flushes the group and
  starts a new trace.

The residue-table half of compilation (:func:`~repro.core.plan.compile_plan`)
is warmed lazily by :func:`warm_plans` once the engine knows the target
geometry; warming never raises, so error *timing* is identical to the
hand-built paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from ..core.exceptions import PolyMemError, ProgramError
from ..core.plan import AccessBlock, AccessTrace, compile_plan
from .ir import AccessOp, AccessProgram, Barrier, Compute, ParallelRead, ParallelWrite

__all__ = [
    "CompiledProgram",
    "CompiledSegment",
    "TraceStep",
    "compile_program",
    "validate_program",
    "warm_plans",
]


def validate_program(program: AccessProgram) -> None:
    """Structural validation beyond what the op constructors enforce."""
    if not isinstance(program, AccessProgram):
        raise ProgramError(f"expected an AccessProgram, got {type(program).__name__}")
    group_open = False
    for idx, op in enumerate(program.ops):
        if isinstance(op, (Compute, Barrier)):
            group_open = False
            continue
        if not isinstance(op, AccessOp):
            raise ProgramError(
                f"op {idx} of {program.name!r} is not an access/compute/barrier "
                f"op: {op!r}"
            )
        if op.fuse and not group_open:
            raise ProgramError(
                f"op {idx} of {program.name!r} has fuse=True but no preceding "
                f"access op in its segment"
            )
        group_open = True


class TraceStep:
    """One replayable trace: coalesced parallel streams on one memory.

    ``reads`` maps each port (insertion order = issue order, which the
    replay's collision handling observes) to its
    :class:`~repro.core.plan.AccessBlock`; ``write`` is ``None`` or
    ``(block, spans)`` where ``spans`` is a list of ``(start, stop,
    ValueSource)`` value spans.
    ``bindings`` lists ``(tag, port, start, stop)`` spans of the replay
    outputs to publish into the execution environment.
    """

    __slots__ = ("mem", "n", "reads", "write", "bindings", "_trace")

    def __init__(self, mem, n, reads, write, bindings):
        self.mem = mem
        self.n = n
        self.reads = reads
        self.write = write
        self.bindings = bindings
        self._trace = None

    @property
    def concrete(self) -> bool:
        """Whether the trace can be built once and cached (no late-bound
        or missing write values)."""
        if self.write is None:
            return True
        return all(
            isinstance(v, np.ndarray) for _, _, v in self.write[1]
        )

    def write_values(self, env: Mapping[str, Any]) -> np.ndarray:
        """Assemble the ``(n, lanes)`` write data, resolving callables."""
        parts = []
        for start, stop, src in self.write[1]:
            if src is None:
                raise ProgramError(
                    "write op has no values: describe-only programs "
                    "cannot execute"
                )
            values = np.asarray(src(env) if callable(src) else src)
            if values.ndim != 2 or values.shape[0] != stop - start:
                raise ProgramError(
                    f"write values must be (n, lanes) = ({stop - start}, ...), "
                    f"got shape {values.shape}"
                )
            parts.append(values)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def trace(self, env: Mapping[str, Any] | None = None) -> AccessTrace:
        """The :class:`AccessTrace` for this step (cached when concrete)."""
        if self._trace is not None:
            return self._trace
        trace = AccessTrace()
        for port, block in self.reads.items():
            trace.add(block, port)
        if self.write is not None:
            trace.add(self.write[0].with_values(self.write_values(env or {})))
        if self.concrete:
            self._trace = trace
        return trace

    def __repr__(self) -> str:
        ports = ",".join(str(p) for p in self.reads)
        w = "+write" if self.write is not None else ""
        return f"TraceStep(mem={self.mem!r}, n={self.n}, ports=[{ports}]{w})"


@dataclass(frozen=True)
class CompiledSegment:
    """A run of traces bounded by compute/barrier ops (or program end)."""

    index: int
    steps: tuple
    #: the Compute/Barrier closing the segment (``None`` at program end)
    boundary: object = None

    @property
    def access_cycles(self) -> int:
        return sum(step.n for step in self.steps)


@dataclass(frozen=True)
class CompiledProgram:
    """The compiled form: segments of replayable trace steps."""

    program: AccessProgram
    segments: tuple
    #: memory names in first-use order (the CycleScope order)
    mems: tuple = ()
    #: ``(mem, kind, stride)`` families touched — the plan-warming set
    families: tuple = field(default=(), repr=False)

    @property
    def n_traces(self) -> int:
        return sum(len(seg.steps) for seg in self.segments)

    @property
    def access_cycles(self) -> int:
        return sum(seg.access_cycles for seg in self.segments)


class _Group:
    """The coalescer's open group: pieces destined for one trace."""

    def __init__(self, op: AccessOp):
        self.mem = op.mem
        self.n = op.n
        self.fused = False
        self.read_pieces: dict[int, list[ParallelRead]] = {}
        self.write_pieces: list[ParallelWrite] = []
        self._add(op)

    def _add(self, op: AccessOp) -> None:
        if isinstance(op, ParallelRead):
            self.read_pieces.setdefault(op.port, []).append(op)
        else:
            self.write_pieces.append(op)

    # -- joining rules -----------------------------------------------------
    def fuse(self, op: AccessOp) -> None:
        """Attach *op* as a parallel stream of this group's trace."""
        if op.mem != self.mem:
            raise ProgramError(
                f"fuse=True across memories: group on {self.mem!r}, "
                f"op on {op.mem!r}"
            )
        if op.n != self.n:
            raise ProgramError(
                f"fuse=True needs matching stream lengths: group has "
                f"{self.n} cycles, op has {op.n}"
            )
        if isinstance(op, ParallelRead) and op.port in self.read_pieces:
            raise ProgramError(
                f"fuse=True onto an occupied read port {op.port}"
            )
        if isinstance(op, ParallelWrite) and self.write_pieces:
            raise ProgramError("fuse=True onto an occupied write stream")
        self._add(op)
        self.fused = True

    def can_concat(self, op: AccessOp) -> bool:
        if self.fused or op.mem != self.mem:
            return False
        if isinstance(op, ParallelRead):
            if self.write_pieces or list(self.read_pieces) != [op.port]:
                return False
            return self.read_pieces[op.port][0].stride == op.stride
        if self.read_pieces or not self.write_pieces:
            return False
        return self.write_pieces[0].stride == op.stride

    def concat(self, op: AccessOp) -> None:
        self._add(op)
        self.n += op.n

    # -- finalization ------------------------------------------------------
    def finalize(self) -> TraceStep:
        reads = {}
        bindings = []
        for port, pieces in self.read_pieces.items():
            reads[port] = AccessBlock.concat([op.block for op in pieces])
            start = 0
            for op in pieces:
                if op.tag is not None:
                    bindings.append((op.tag, port, start, start + op.n))
                start += op.n
        write = None
        if self.write_pieces:
            pieces = self.write_pieces
            spans = []
            start = 0
            for op in pieces:
                spans.append((start, start + op.n, op.values))
                start += op.n
            write = (AccessBlock.concat([op.block for op in pieces]), spans)
        return TraceStep(self.mem, self.n, reads, write, bindings)


def compile_program(program: AccessProgram) -> CompiledProgram:
    """Validate, coalesce and segment *program* into replayable traces."""
    validate_program(program)
    segments: list[CompiledSegment] = []
    steps: list[TraceStep] = []
    mems: list[str] = []
    families: set = set()
    group: _Group | None = None

    def flush_group() -> None:
        nonlocal group
        if group is not None:
            steps.append(group.finalize())
            group = None

    def close_segment(boundary) -> None:
        flush_group()
        segments.append(CompiledSegment(len(segments), tuple(steps), boundary))
        steps.clear()

    for op in program.ops:
        if isinstance(op, (Compute, Barrier)):
            close_segment(op)
            continue
        if op.mem not in mems:
            mems.append(op.mem)
        families.update((op.mem, kind, stride) for kind, stride in op.block.families)
        if op.fuse:
            # validate_program guarantees an open group here
            group.fuse(op)
        elif group is not None and group.can_concat(op):
            group.concat(op)
        else:
            flush_group()
            group = _Group(op)
    if steps or group is not None or not segments:
        close_segment(None)
    return CompiledProgram(
        program=program,
        segments=tuple(segments),
        mems=tuple(mems),
        families=tuple(sorted(families)),
    )


def warm_plans(compiled: CompiledProgram, mems: Mapping[str, Any]) -> None:
    """Pre-compile the residue tables for every access family.

    Warming is a pure cache fill (:func:`compile_plan` is memoized
    process-wide); failures are swallowed so malformed accesses raise at
    the exact replay the hand-built paths would have raised at.
    """
    for name, kind, stride in compiled.families:
        pm = mems.get(name)
        if pm is None:
            continue
        try:
            compile_plan(pm.rows, pm.cols, pm.p, pm.q, pm.scheme, kind, stride)
        except PolyMemError:
            pass
