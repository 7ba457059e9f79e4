"""The Maxeler Vectis board, as data.

Every number describing the paper's board used to live twice — once in
:mod:`repro.hw.fpga` (the FPGA part inventory) and once more in
:mod:`repro.hw.bram` / :mod:`repro.maxeler.pcie` comments and default
arguments.  This module is the single source of truth; the ``hw`` and
``maxeler`` modules (and the :class:`~repro.backend.fpga.FpgaBramBackend`
built on them) all read from here.

Deliberately import-free with respect to the rest of the package: the
``hw`` layer imports *this* module, so nothing here may import ``hw``.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

__all__ = [
    "BoardConstants",
    "VECTIS",
    "VECTIS_FPGA",
    "LX240T_FPGA",
    "INFRA_BLOCKS_NOMINAL",
    "RAMB36_DATA_BITS",
    "RAMB36_PARITY_BITS",
    "RAMB36_WIDE_DEPTH",
    "RAMB36_WIDE_WIDTH",
]

#: RAMB36E1 primitive geometry (Virtex-6 Memory Resources, UG363)
RAMB36_DATA_BITS = 32 * 1024
RAMB36_PARITY_BITS = 4 * 1024
#: widest aspect ratio — 512 x 72 — the one 64-bit PolyMem banks use
RAMB36_WIDE_DEPTH = 512
RAMB36_WIDE_WIDTH = 72

#: Maxeler static infrastructure (PCIe streams, manager) block allowance,
#: calibrated against the paper's quoted 16.07% for a 512KB/8-lane/1-port
#: PolyMem (= 171 blocks total, 128 of which are data).
INFRA_BLOCKS_NOMINAL = 43

#: the Vectis DFE's FPGA — Virtex-6 SX475T (Family Overview, DS150)
VECTIS_FPGA = MappingProxyType(
    {
        "name": "xc6vsx475t",
        "logic_cells": 476_160,
        "slices": 74_400,
        "luts": 297_600,
        "flip_flops": 595_200,
        "bram36": 1_064,
        "dsp48": 2_016,
    }
)

#: a smaller Virtex-6 sibling, useful for feasibility what-ifs
LX240T_FPGA = MappingProxyType(
    {
        "name": "xc6vlx240t",
        "logic_cells": 241_152,
        "slices": 37_680,
        "luts": 150_720,
        "flip_flops": 301_440,
        "bram36": 416,
        "dsp48": 768,
    }
)


@dataclass(frozen=True)
class BoardConstants:
    """Board-level constants of one DFE card (FPGA part aside)."""

    name: str
    #: fixed per-blocking-call host overhead measured by the paper (§V)
    pcie_call_overhead_ns: float
    #: sustained PCIe payload bandwidth in GB/s (gen2 x8 effective)
    pcie_bandwidth_gbps: float


#: the paper's board: Maxeler MAX3424A "Vectis"
VECTIS = BoardConstants(
    name="vectis",
    pcie_call_overhead_ns=300.0,
    pcie_bandwidth_gbps=2.0,
)
