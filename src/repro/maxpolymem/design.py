"""Design assembly: a complete MAX-PolyMem DFE from a PolyMemConfig.

Combines the fused kernel (or the modular pipeline), a clock frequency from
the calibrated synthesis model (or the paper's Table IV when the
configuration is on its grid), and the board model into a ready-to-run
:class:`~repro.maxeler.dfe.DFE` plus a resource report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.config import PolyMemConfig
from ..hw.calibration import table_iv_frequency
from ..hw.crossbar import design_shuffles
from ..hw.synthesis import SynthesisReport, default_model
from ..maxeler.dfe import DFE, VectisBoard
from ..maxeler.host import Host
from ..maxeler.manager import Manager
from .kernel import DEFAULT_READ_LATENCY, FusedPolyMemKernel

if TYPE_CHECKING:  # the modular pipeline loads only when one is built
    from .modular import ModularDesign

__all__ = ["PolyMemDesign", "build_design", "clock_for"]


def clock_for(config: PolyMemConfig, source: str = "auto") -> float:
    """Clock frequency (MHz) for *config*.

    ``source``:

    * ``"paper"`` — Table IV lookup (raises KeyError off-grid);
    * ``"model"`` — the calibrated synthesis model;
    * ``"auto"`` — paper value when the configuration is on the Table IV
      grid, model estimate otherwise.
    """
    cap_kb = config.capacity_bytes // 1024
    paper = table_iv_frequency(
        config.scheme, cap_kb, config.lanes, config.read_ports
    )
    if source == "paper":
        if paper is None:
            raise KeyError(f"{config.label()} is not in Table IV")
        return paper
    if source == "model":
        return default_model().frequency_mhz(config)
    if source == "auto":
        return paper if paper is not None else default_model().frequency_mhz(config)
    raise ValueError(f"unknown clock source {source!r}")


@dataclass
class PolyMemDesign:
    """A built MAX-PolyMem design, ready to simulate."""

    config: PolyMemConfig
    dfe: DFE
    kernel: FusedPolyMemKernel | None
    modular: ModularDesign | None
    synthesis: SynthesisReport
    style: str

    @property
    def read_latency(self) -> int:
        if self.kernel is not None:
            return self.kernel.read_latency
        return self.modular.pipeline_latency

    def host(self) -> Host:
        """A fresh host attached to this design's DFE."""
        return Host(self.dfe)

    def resource_luts(self) -> int:
        """Shuffle LUTs plus (for modular style) interconnect overhead."""
        shuffles = design_shuffles(self.config).total_luts
        interconnect = self.dfe.manager.resources().interconnect_luts
        return shuffles + interconnect


def build_design(
    config: PolyMemConfig,
    style: str = "fused",
    clock_source: str = "auto",
    read_latency: int = DEFAULT_READ_LATENCY,
    board: VectisBoard | None = None,
) -> PolyMemDesign:
    """Build a complete MAX-PolyMem design.

    Host endpoints exposed by both styles: ``wr_cmd``, ``rd_cmd{r}`` inputs
    and ``rd_out{r}`` outputs.
    """
    synth = default_model().estimate(config)
    clock = clock_for(config, clock_source)
    if style == "fused":
        mgr = Manager("max-polymem", style="fused")
        kernel = FusedPolyMemKernel("polymem", config, read_latency=read_latency)
        mgr.add_kernel(kernel)
        mgr.host_to_kernel("wr_cmd", kernel, "wr_cmd")
        for port in range(config.read_ports):
            mgr.host_to_kernel(f"rd_cmd{port}", kernel, f"rd_cmd{port}")
            mgr.kernel_to_host(f"rd_out{port}", kernel, f"rd_out{port}")
        dfe = DFE(mgr, clock_mhz=clock, board=board)
        return PolyMemDesign(
            config=config,
            dfe=dfe,
            kernel=kernel,
            modular=None,
            synthesis=synth,
            style=style,
        )
    if style == "modular":
        from .modular import build_modular_design

        modular = build_modular_design(config)
        dfe = DFE(modular.manager, clock_mhz=clock, board=board)
        return PolyMemDesign(
            config=config,
            dfe=dfe,
            kernel=None,
            modular=modular,
            synthesis=synth,
            style=style,
        )
    raise ValueError(f"unknown design style {style!r}")
