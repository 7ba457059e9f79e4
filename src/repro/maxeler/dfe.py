"""DFE board model: FPGA + clock + host link (the Fig. 1 organization).

A :class:`DFE` couples a frozen design (manager), a clock frequency (from
the synthesis model or the paper's tables), and a PCIe link.  The host talks
to the DFE exclusively through blocking *actions* (see
:mod:`repro.maxeler.host`), each of which advances the simulated wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.exceptions import SimulationError
from .manager import Manager
from .pcie import VECTIS_PCIE, PcieLink
from .simulator import Simulator

__all__ = ["DFE", "VectisBoard"]


@dataclass
class VectisBoard:
    """Static description of the Maxeler Vectis board used in the paper."""

    name: str = "Vectis"
    fpga_name: str = "xc6vsx475t"
    pcie: PcieLink = field(default_factory=lambda: VECTIS_PCIE)


class DFE:
    """A design loaded onto a board and clocked at a fixed frequency."""

    def __init__(
        self,
        manager: Manager,
        clock_mhz: float,
        board: VectisBoard | None = None,
        max_cycles: int = 50_000_000,
    ):
        if clock_mhz <= 0:
            raise SimulationError(f"clock must be positive, got {clock_mhz}")
        self.board = board or VectisBoard()
        self.manager = manager
        self.clock_mhz = clock_mhz
        self.simulator = Simulator(manager, max_cycles=max_cycles)
        manager.freeze()

    @property
    def cycle_ns(self) -> float:
        """Duration of one clock cycle in nanoseconds."""
        return 1e3 / self.clock_mhz

    def cycles_to_ns(self, cycles: int) -> float:
        return cycles * self.cycle_ns
