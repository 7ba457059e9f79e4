"""A MaxJ-like kernel DSL (paper §II-B's programming model, miniaturized).

Dataflow kernels are described as typed operation graphs with stream
offsets, then compiled into tickable kernels for the
:mod:`repro.maxeler` simulator:

>>> from repro.maxj import KernelGraph, compile_graph, FLOAT64
>>> g = KernelGraph("smooth")
>>> x = g.input("x", FLOAT64)
>>> g.output("y", (x.offset(-1) + x) / 2.0)
>>> kernel = compile_graph(g)
"""

from .._lazy import export_lazily

__all__ = export_lazily(__name__, {
    "compile": ("GraphKernel", "compile_graph"),
    "graph": ("DFEVar", "KernelGraph", "Node"),
    "types": ("BOOL", "FLOAT64", "INT64", "UINT32", "UINT64", "HWType"),
})
