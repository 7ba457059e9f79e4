"""``repro.program`` — the access-program IR and its execution pipeline.

One typed description of a memory-bound kernel
(:class:`~repro.program.ir.AccessProgram`: ordered
:class:`~repro.program.ir.ParallelRead` /
:class:`~repro.program.ir.ParallelWrite` /
:class:`~repro.program.ir.Compute` / :class:`~repro.program.ir.Barrier`
ops plus metadata), one pass pipeline
(:func:`~repro.program.passes.compile_program`: validate → coalesce →
compile to residue tables → segment), and one engine
(:func:`~repro.program.engine.execute`) that replays each segment whole
and reports through a single :class:`~repro.program.report.KernelReport`.
Every PolyMem client — the application kernels, the schedule executor,
the STREAM controller — *lowers* to this IR
instead of hand-assembling :class:`~repro.core.plan.AccessTrace`
objects.

Programs are built one way: :func:`~repro.program.builder.build` binds a
registered lowering name or an :class:`~repro.program.ir.AccessProgram`
to its memories.  The engine JIT-specializes barrier-free segment
groups into precomputed fancy-index kernels (:mod:`repro.program.fuse`);
any step it cannot prove bit-identical replays through
:meth:`PolyMem.replay`, itself bit-identical to per-cycle
:meth:`PolyMem.step`.  It records its own telemetry.

Demo lowerings live in :mod:`repro.program.lower` (imported lazily —
it depends on the kernel modules, which import this package).
"""

from .._lazy import export_lazily

__all__ = export_lazily(__name__, {
    "builder": ("BuiltProgram", "SPEC_NAMES", "build"),
    "engine": ("ProgramResult", "execute"),
    "fuse": ("FusionPlan", "KernelCache", "fusion_plan", "kernel_cache"),
    "ir": (
        "AccessOp", "AccessProgram", "Barrier", "Compute", "ParallelRead",
        "ParallelWrite",
    ),
    "passes": (
        "CompiledProgram", "CompiledSegment", "TraceStep", "compile_program",
        "validate_program", "warm_plans",
    ),
    "report": ("CycleScope", "KernelReport"),
})
