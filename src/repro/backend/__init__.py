"""Pluggable device backends: the hardware substrate behind one interface.

Built-in backends (``get_backend(name)``):

========== ===========================================================
``vectis``  the paper's board — Virtex-6 SX475T BRAM, PCIe gen2 link
            (the default; byte-identical to the pre-backend code path)
``lx240t``  the smaller Virtex-6 LX240T sibling
``dram``    4-channel DDR3 (LMem-class) with the burst/row-buffer model
``hbm2``    one HBM2 stack: 16 pseudo-channels, 256 GB/s aggregate
``dual-dfe`` a logical PolyMem sharded across two Vectis boards
========== ===========================================================

``REPRO_BACKEND=<name>`` selects the default for CLI runs and the
backend-parameterized tests.  This package imports lazily — the ``hw``
layer reads board constants from :mod:`repro.backend.vectis`, so nothing
here may import ``hw`` at module-import time.
"""

from __future__ import annotations

from .._lazy import export_lazily
from . import base as _base

__all__ = export_lazily(__name__, {
    "base": (
        "AchievedBandwidth", "AddressStream", "DeviceBackend", "Feasibility",
        "LinkModel", "backend_names", "default_backend_name", "get_backend",
        "register_backend",
    ),
    "vectis": ("VECTIS", "BoardConstants"),
    "fpga": ("FpgaBramBackend", "VectisBramBackend", "Lx240tBramBackend"),
    "dram": ("DramChannelModel", "DramChannelBackend"),
    "sharded": ("ShardedPolyMemBackend",),
    "layout": ("BurstLayout", "plan_layout"),
})


def _vectis() -> _base.DeviceBackend:
    from .fpga import VectisBramBackend

    return VectisBramBackend()


def _lx240t() -> _base.DeviceBackend:
    from .fpga import Lx240tBramBackend

    return Lx240tBramBackend()


def _dram() -> _base.DeviceBackend:
    from .dram import DDR3_LMEM, DramChannelBackend

    return DramChannelBackend(DDR3_LMEM, name="dram")


def _hbm2() -> _base.DeviceBackend:
    from .dram import HBM2_STACK, DramChannelBackend

    return DramChannelBackend(HBM2_STACK, name="hbm2")


def _dual_dfe() -> _base.DeviceBackend:
    from .sharded import ShardedPolyMemBackend

    return ShardedPolyMemBackend(n_shards=2, name="dual-dfe")


_base.register_backend("vectis", _vectis)
_base.register_backend("lx240t", _lx240t)
_base.register_backend("dram", _dram)
_base.register_backend("hbm2", _hbm2)
_base.register_backend("dual-dfe", _dual_dfe)
