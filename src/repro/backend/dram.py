"""Off-chip DRAM/HBM channel backends: burst coalescing + row buffers.

Where on-chip BRAM delivers a full parallel word every cycle regardless of
the address stream, an off-chip channel's *achieved* bandwidth is a
function of the stream's shape (arXiv 2202.05933):

* the controller moves **aligned bursts** of ``burst_bytes``; touching one
  word of a burst pays for the whole granule, so a stride that visits one
  word per burst wastes ``burst_bytes / word_bytes`` of the wire;
* each (pseudo-)channel keeps one **row buffer** of ``row_bytes`` open;
  a burst landing in a different row pays the activate/precharge penalty
  ``row_miss_ns``;
* consecutive addresses **interleave** across channels every
  ``interleave_bytes``, so channels drain in parallel and the stream's
  wall time is the busiest channel's.

:class:`DramChannelModel.traffic` evaluates that model for one
:class:`~repro.backend.base.AddressStream` in a handful of vectorized
passes — the streams themselves come from the same compiled-plan
``di``/``dj`` address tables the batched replay engine gathers from
(:meth:`AddressStream.from_plan`).  The burst-friendly layout pass in
:mod:`repro.backend.layout` exists to move real streams toward the
sequential corner of this model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.config import PolyMemConfig
from ..telemetry import context as _telemetry
from .base import (
    AchievedBandwidth,
    AddressStream,
    DeviceBackend,
    Feasibility,
    LinkModel,
)
from .fpga import FpgaBramBackend, VectisBramBackend

__all__ = [
    "DramChannelModel",
    "DramChannelBackend",
    "DDR3_LMEM",
    "HBM2_STACK",
]


@dataclass(frozen=True)
class DramChannelModel:
    """One off-chip memory system: N identical (pseudo-)channels.

    ``channel_gbps`` is the per-channel pin bandwidth; GB/s equals
    bytes/ns, which keeps the timing arithmetic below unit-free.
    """

    name: str
    channels: int
    channel_gbps: float
    row_bytes: int
    burst_bytes: int
    interleave_bytes: int
    row_miss_ns: float
    capacity_bytes: int

    @property
    def peak_gbps(self) -> float:
        """Aggregate pin bandwidth over all channels."""
        return self.channels * self.channel_gbps

    def traffic(self, stream: AddressStream) -> AchievedBandwidth:
        """Evaluate the burst/row-buffer model for one address stream."""
        byte0 = stream.addresses * stream.word_bytes
        chan = (byte0 // self.interleave_bytes) % self.channels
        granule = byte0 // self.burst_bytes
        row = byte0 // self.row_bytes
        bursts = row_hits = row_misses = 0
        busiest_ns = 0.0
        transferred = 0
        for c in range(self.channels):
            mask = chan == c
            if not mask.any():
                continue
            g = granule[mask]
            new_burst = np.empty(g.size, dtype=bool)
            new_burst[0] = True
            np.not_equal(g[1:], g[:-1], out=new_burst[1:])
            burst_rows = row[mask][new_burst]
            miss = np.empty(burst_rows.size, dtype=bool)
            miss[0] = True
            np.not_equal(burst_rows[1:], burst_rows[:-1], out=miss[1:])
            n_bursts = int(new_burst.sum())
            n_misses = int(miss.sum())
            moved = n_bursts * self.burst_bytes
            time_ns = moved / self.channel_gbps + n_misses * self.row_miss_ns
            bursts += n_bursts
            row_misses += n_misses
            row_hits += n_bursts - n_misses
            transferred += moved
            busiest_ns = max(busiest_ns, time_ns)
        useful = stream.payload_bytes
        achieved = useful / busiest_ns if busiest_ns else 0.0
        return AchievedBandwidth(
            peak_gbps=self.peak_gbps,
            achieved_gbps=achieved,
            useful_bytes=useful,
            transferred_bytes=transferred,
            time_ns=busiest_ns,
            bursts=bursts,
            row_hits=row_hits,
            row_misses=row_misses,
        )


#: the Vectis board's 24 GB of on-board DDR3 (Maxeler's LMem), seen as a
#: channel system: 4 DDR3 channels summing to 38.4 GB/s.
DDR3_LMEM = DramChannelModel(
    name="ddr3-lmem",
    channels=4,
    channel_gbps=9.6,
    row_bytes=8 * 1024,
    burst_bytes=64,
    interleave_bytes=1024,
    row_miss_ns=50.0,
    capacity_bytes=24 * 1024**3,
)

#: one HBM2 stack: 16 pseudo-channels of 16 GB/s (256 GB/s aggregate),
#: 2 KB row buffers, 32 B bursts — the substrate of the multi-die
#: "what-if" sweeps (arXiv 2203.10850).
HBM2_STACK = DramChannelModel(
    name="hbm2-stack",
    channels=16,
    channel_gbps=16.0,
    row_bytes=2 * 1024,
    burst_bytes=32,
    interleave_bytes=256,
    row_miss_ns=45.0,
    capacity_bytes=8 * 1024**3,
)


class DramChannelBackend(DeviceBackend):
    """A PolyMem whose data lives off-chip in DRAM/HBM channels.

    The FPGA *fabric* (crossbars, MAFs, the clock model) is still an FPGA
    — ``fabric`` supplies synthesis estimates and the design clock — but
    the banks map onto channel memory, so capacity is bounded by the
    channel system and bandwidth by its burst behaviour, not by BRAM.
    """

    def __init__(
        self,
        model: DramChannelModel,
        fabric: FpgaBramBackend | None = None,
        name: str | None = None,
    ):
        self.model = model
        self.fabric = fabric if fabric is not None else VectisBramBackend()
        self.name = name or model.name

    # -- identity ---------------------------------------------------------
    def describe(self) -> dict:
        return {
            "name": self.name,
            "kind": "dram",
            "channels": self.model.channels,
            "channel_gbps": self.model.channel_gbps,
            "peak_gbps": self.model.peak_gbps,
            "row_bytes": self.model.row_bytes,
            "burst_bytes": self.model.burst_bytes,
            "capacity_bytes": self.model.capacity_bytes,
            "fabric": self.fabric.device.name,
        }

    # -- capacity / area --------------------------------------------------
    def feasibility(self, config: PolyMemConfig) -> Feasibility:
        utilization = config.capacity_bytes / self.model.capacity_bytes
        feasible = config.capacity_bytes <= self.model.capacity_bytes
        return Feasibility(
            feasible=feasible,
            utilization=utilization,
            reason=""
            if feasible
            else (
                f"{config.capacity_bytes} B exceeds the "
                f"{self.model.capacity_bytes} B channel capacity"
            ),
            detail={"capacity_bytes": self.model.capacity_bytes},
        )

    # -- clock / synthesis ------------------------------------------------
    def clock_mhz(self, config: PolyMemConfig) -> float:
        return self.fabric.clock_mhz(config)

    def paper_mhz(self, config: PolyMemConfig) -> float | None:
        return self.fabric.paper_mhz(config)

    def synthesis(self, config: PolyMemConfig):
        return self.fabric.synthesis(config)

    # -- host link --------------------------------------------------------
    @property
    def link(self) -> LinkModel:
        return self.fabric.link

    # -- bandwidth --------------------------------------------------------
    def peak_write_gbps(self, config: PolyMemConfig) -> float:
        """The channel system's aggregate pin bandwidth — the bound the
        burst/row model's achieved figure approaches on a balanced,
        burst-aligned stream.  (The fabric's single-port Fig. 4 number is
        a different layer: channels drain in parallel behind it.)"""
        return self.model.peak_gbps

    def peak_read_gbps(self, config: PolyMemConfig) -> float:
        return self.model.peak_gbps

    def achieved_bandwidth(
        self, config: PolyMemConfig, stream: AddressStream
    ) -> AchievedBandwidth:
        stats = self.model.traffic(stream)
        tel = _telemetry.active()
        if tel is not None:
            metrics = tel.metrics
            metrics.counter("backend.dram.bursts").inc(stats.bursts)
            metrics.counter("backend.dram.row_hits").inc(stats.row_hits)
            metrics.counter("backend.dram.row_misses").inc(stats.row_misses)
            metrics.counter("backend.dram.useful_bytes").inc(
                stats.useful_bytes
            )
            metrics.counter("backend.dram.transferred_bytes").inc(
                stats.transferred_bytes
            )
            metrics.gauge("backend.dram.efficiency").set(stats.efficiency)
        return stats
