"""PolyMem-backed application kernels (the paper's §VII future work).

Each kernel routes *all* of its operand traffic through PolyMem parallel
accesses, verifies against a NumPy reference, and reports cycle counts and
speedups over a scalar memory — the application-level evidence for the
multiview design.
"""

from .._lazy import export_lazily

__all__ = export_lazily(__name__, {
    "jacobi": ("jacobi_reference", "jacobi_solve"),
    "matmul": ("matmul", "matmul_scalar_cycles"),
    "reduction": ("load_matrix", "reduce_columns", "reduce_rows"),
    "stencil": ("stencil_reference", "stencil_serial_cycles", "stencil_sweep"),
    "transpose": ("transpose", "transpose_serial_cycles"),
})
