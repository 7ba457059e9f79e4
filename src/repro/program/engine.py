"""One execution engine for every access program.

:func:`execute` runs a compiled :class:`~repro.program.ir.AccessProgram`
against one or more :class:`~repro.core.polymem.PolyMem` instances.  It
first specializes the compiled segments into cached index-table kernels
(:func:`repro.program.fuse.fusion_plan`) and drives those: tagged read
outputs are published into the execution *environment*, and
:class:`~repro.program.ir.Compute` boundaries run host work over it.
Any step fusion cannot prove bit-identical (invalid cycles,
describe-only writes, ``forbid`` collisions, …) runs through
:meth:`PolyMem.replay` instead — bit-identical to per-cycle
:meth:`PolyMem.step`, the Fig. 3 reference — so results, state,
statistics and errors never drift.  Cycle/element accounting flows
through one :class:`~repro.program.report.CycleScope`, so every caller
gets the same :class:`~repro.program.report.KernelReport` shape from the
same place.

When a telemetry session is active the engine records its own counters
(``program.executions``, ``program.segments``, ``program.traces``,
``program.trace_cycles``, ``program.compute_boundaries``,
``program.cycles``), the ``program:<name>`` and ``segment:<i>`` spans and
one ``compute:<label>`` instant per host-compute boundary.  A replay
error leaves the program and segment spans open;
:meth:`~repro.telemetry.spans.SpanTracer.close_open_spans` closes them at
export time with ``"aborted": true``.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..core.exceptions import ProgramError
from ..core.polymem import PolyMem
from ..telemetry import context as _telemetry
from .fuse import fusion_plan
from .ir import AccessProgram, Compute
from .passes import CompiledProgram, compile_program, warm_plans
from .report import CycleScope, KernelReport

__all__ = ["ProgramResult", "execute"]


class ProgramResult:
    """What an execution produced: the environment plus the report."""

    __slots__ = ("program", "env", "report")

    def __init__(self, program: AccessProgram, env: dict, report: KernelReport):
        self.program = program
        self.env = env
        self.report = report

    def __getitem__(self, tag: str) -> Any:
        return self.env[tag]

    def __repr__(self) -> str:
        return (
            f"ProgramResult({self.program.name!r}, "
            f"cycles={self.report.cycles}, env={sorted(self.env)})"
        )


def _resolve_mems(compiled: CompiledProgram, polymem) -> dict[str, PolyMem]:
    if isinstance(polymem, PolyMem):
        mapping = {"default": polymem}
    else:
        mapping = dict(polymem)
    missing = [name for name in compiled.mems if name not in mapping]
    if missing:
        raise ProgramError(
            f"program {compiled.program.name!r} targets unmapped "
            f"memories: {missing}"
        )
    return mapping


def execute(
    program: AccessProgram | CompiledProgram,
    polymem,
    env: Mapping[str, Any] | None = None,
    result_elements: int | None = None,
) -> ProgramResult:
    """Execute *program* against *polymem* (one PolyMem, or a mapping of
    memory names to PolyMems for multi-memory programs).

    Returns a :class:`ProgramResult`: the final environment (tagged read
    outputs and Compute products) plus the :class:`KernelReport`.  The
    ``result_elements`` of the report come from the explicit argument,
    else the environment's/metadata's ``"result_elements"`` key, else 0.
    """
    compiled = (
        program
        if isinstance(program, CompiledProgram)
        else compile_program(program)
    )
    prog = compiled.program
    mems = _resolve_mems(compiled, polymem)
    scope_mems = [mems[name] for name in compiled.mems]
    if not scope_mems:  # access-free program: account against any memory
        if not mems:
            raise ProgramError(
                f"program {prog.name!r} accesses no memory and none is "
                f"bound; pass a PolyMem to account its cycles against"
            )
        scope_mems = [next(iter(mems.values()))]
    warm_plans(compiled, mems)
    plan = fusion_plan(compiled, mems)
    env = dict(env or {})
    tel = _telemetry.active()
    tracer = None if tel is None else tel.tracer
    if tel is not None:
        tel.metrics.counter("program.executions").inc()
        tel.metrics.counter("program.segments").inc(len(compiled.segments))
    if tracer is not None:
        tracer.begin(
            f"program:{prog.name}",
            cat="program",
            segments=len(compiled.segments),
            traces=compiled.n_traces,
            access_cycles=compiled.access_cycles,
        )
    with CycleScope(scope_mems[0], prog.name, *scope_mems[1:]) as scope:
        for segment in compiled.segments:
            if tracer is not None:
                tracer.begin(
                    f"segment:{segment.index}",
                    cat="program",
                    steps=len(segment.steps),
                    access_cycles=segment.access_cycles,
                )
            plan.run_segment(segment, mems, env, tel)
            if isinstance(segment.boundary, Compute):
                product = segment.boundary.fn(env)
                if isinstance(product, dict):
                    env.update(product)
                if tel is not None:
                    tel.metrics.counter("program.compute_boundaries").inc()
                if tracer is not None:
                    tracer.instant(
                        f"compute:{segment.boundary.label}", cat="program"
                    )
            if tracer is not None:
                tracer.end()
        if result_elements is None:
            result_elements = env.get(
                "result_elements", prog.metadata.get("result_elements", 0)
            )
        result = ProgramResult(prog, env, scope.report(int(result_elements)))
    if tel is not None:
        tel.metrics.counter("program.cycles").inc(result.report.cycles)
    if tracer is not None:
        tracer.end(cycles=result.report.cycles)
    return result
