"""Maxeler-like dataflow substrate: kernels, streams, manager, simulator.

A cycle-accurate stand-in for the MaxJ platform the paper targets (see
DESIGN.md).  Designs are built from :class:`Kernel` nodes connected by
:class:`Stream` edges under a :class:`Manager`, loaded onto a :class:`DFE`,
and driven by a :class:`Host` through blocking calls that model PCIe
overheads.
"""

from .._lazy import export_lazily

__all__ = export_lazily(__name__, {
    "batch": ("BatchOp", "BatchPlan", "PushClaim", "UNSET"),
    "conditions": ("Predicate", "RunCondition", "StreamFill"),
    "dfe": ("DFE", "VectisBoard"),
    "host": ("Host", "StageTiming"),
    "kernel": (
        "BinOpKernel", "DelayKernel", "DemuxKernel", "Kernel", "MapKernel",
        "MuxKernel", "SinkKernel", "SourceKernel",
    ),
    "manager": ("DesignResources", "Manager"),
    "pcie": ("VECTIS_PCIE", "PcieLink"),
    "simulator": ("KernelStats", "SimulationResult", "Simulator"),
    "stream": ("Stream",),
})
