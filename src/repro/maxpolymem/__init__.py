"""MAX-PolyMem: PolyMem realized as a dataflow design (paper Fig. 3).

Two implementations mirror the paper's §III-C development history:

* :class:`FusedPolyMemKernel` — the optimized single-kernel design;
* :func:`build_modular_design` — the multi-kernel pipeline (AGU, M, A,
  Shuffles, Banks as separate kernels), ~2x the resources.

:func:`build_design` assembles either into a runnable DFE;
:func:`validate_design` runs the paper's §IV-A unique-value read/write
validation cycle.
"""

from .._lazy import export_lazily

__all__ = export_lazily(__name__, {
    "design": ("PolyMemDesign", "build_design", "clock_for"),
    "kernel": ("DEFAULT_READ_LATENCY", "FusedPolyMemKernel"),
    "modular": ("Bundle", "ModularDesign", "build_modular_design"),
    "validation": (
        "ValidationReport", "validate_config", "validate_design",
        "validated_rows",
    ),
})
