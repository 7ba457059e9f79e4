"""repro — a full reproduction of MAX-PolyMem (Ciobanu et al., 2018).

PolyMem is a polymorphic parallel memory: a 2-D, multi-bank on-chip software
cache guaranteeing conflict-free parallel access for families of access
patterns (rows, columns, rectangles, diagonals, transposed rectangles).
This package provides:

``repro.core``
    The PolyMem functional model (schemes/MAFs, AGU, shuffles, banks).
``repro.hw``
    FPGA substrate: BRAM primitives, device models, and the calibrated
    synthesis estimator replacing the vendor toolchain.
``repro.maxeler``
    A cycle-accurate dataflow-engine simulator standing in for Maxeler's
    platform (kernels, streams, manager, PCIe, host).
``repro.maxpolymem``
    MAX-PolyMem — PolyMem realized as a dataflow design on the substrate.
``repro.dse``
    The paper's design-space exploration (Tables III–IV, Figs 4–8).
``repro.stream_bench``
    The STREAM benchmark framework of Fig. 9 (Copy, plus Scale/Sum/Triad).
``repro.schedule``
    The application-driven customization flow of §III-A (ILP set covering).
``repro.analysis``
    Productivity analysis (Table II).
``repro.telemetry``
    Cross-cutting observability: metrics registry + span tracing with
    Perfetto export (``docs/observability.md``).

Quickstart::

    from repro import PolyMem, PolyMemConfig, PatternKind, Scheme, KB
    pm = PolyMem(PolyMemConfig(512 * KB, p=2, q=4, scheme=Scheme.ReRo))
    pm.write(PatternKind.RECTANGLE, 0, 0, range(8))
    row = pm.read(PatternKind.ROW, 0, 0)
"""

from ._lazy import export_lazily

__version__ = "1.0.0"

__all__ = export_lazily(__name__, {
    "core": (
        "KB", "MB", "AccessPattern", "AccessRequest", "ConflictAnalyzer",
        "ConflictError", "PatternKind", "PolyMem", "PolyMemConfig",
        "PolyMemError", "Scheme", "all_schemes", "is_conflict_free",
    ),
}) + ["__version__"]
