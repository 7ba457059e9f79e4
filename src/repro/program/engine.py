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

Instrumentation attaches through :class:`Observer` — per-segment and
per-trace callbacks (stats, tracing, future fault injection) instead of
copy-pasted plumbing in each caller.  Observers see state *after* each
event; they must not mutate the memories mid-program.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..core.exceptions import ProgramError
from ..core.polymem import PolyMem
from ..telemetry import context as _telemetry
from ..telemetry.observers import TelemetryObserver
from .fuse import fusion_plan
from .ir import AccessProgram, Compute
from .passes import CompiledProgram, compile_program, warm_plans
from .report import CycleScope, KernelReport

__all__ = ["Observer", "ProgramResult", "execute"]


class Observer:
    """Base class for engine instrumentation; all hooks default to no-ops.

    Hook order per execution: ``on_program_start``, then per segment
    ``on_segment_start`` → (``on_trace`` per step) → ``on_compute`` (if
    the segment closes with host work) → ``on_segment_end``, and finally
    ``on_program_end``.  A replay error aborts the program mid-hook
    sequence (no ``on_program_end``), matching the hand-built paths where
    the caller's plumbing stopped at the raise.
    """

    def on_program_start(
        self, compiled: CompiledProgram, mems: Mapping[str, PolyMem]
    ) -> None:
        pass

    def on_segment_start(self, segment) -> None:
        pass

    def on_trace(self, segment, step, outputs: dict, mem: PolyMem) -> None:
        pass

    def on_compute(self, segment, boundary: Compute, env: dict) -> None:
        pass

    def on_segment_end(self, segment, env: dict) -> None:
        pass

    def on_program_end(self, result: "ProgramResult") -> None:
        pass


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
    observers=(),
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
    tel = _telemetry.active()
    if tel is not None:
        # telemetry rides the existing hook surface — one observer per
        # execution, appended after the caller's own observers
        observers = (*observers, TelemetryObserver(tel))
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
    with CycleScope(scope_mems[0], prog.name, *scope_mems[1:]) as scope:
        for observer in observers:
            observer.on_program_start(compiled, mems)
        for segment in compiled.segments:
            for observer in observers:
                observer.on_segment_start(segment)
            plan.run_segment(segment, mems, env, observers)
            if isinstance(segment.boundary, Compute):
                product = segment.boundary.fn(env)
                if isinstance(product, dict):
                    env.update(product)
                for observer in observers:
                    observer.on_compute(segment, segment.boundary, env)
            for observer in observers:
                observer.on_segment_end(segment, env)
        if result_elements is None:
            result_elements = env.get(
                "result_elements", prog.metadata.get("result_elements", 0)
            )
        result = ProgramResult(prog, env, scope.report(int(result_elements)))
    for observer in observers:
        observer.on_program_end(result)
    return result
