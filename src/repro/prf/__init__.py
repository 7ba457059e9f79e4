"""Polymorphic Register File compatibility layer (paper §II-A heritage).

PolyMem descends from the PRF — a register file whose registers' shapes
and sizes are reorganized at runtime.  This subpackage provides that view
over a PolyMem: runtime-defined/resized 2-D vector registers
(:class:`RegisterFile`) and a small SIMD instruction set executing over
them with parallel-access cycle accounting (:class:`PrfMachine`) — the
substrate behind the PRF lineage's CG-style case studies.
"""

from .._lazy import export_lazily

__all__ = export_lazily(__name__, {
    "machine": ("ExecutionStats", "PrfMachine"),
    "registers": ("RegisterFile", "VectorRegister"),
})
