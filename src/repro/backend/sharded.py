"""A logical PolyMem sharded across multiple DFEs.

The paper instantiates one PolyMem per board; the obvious scale-out is to
split the address space across ``N`` boards running in lockstep, each
holding ``capacity / N`` and serving the accesses that land in its half.
:class:`ShardedPolyMemBackend` models exactly that: per-shard feasibility
on each board's own substrate, the lockstep clock (the slowest shard sets
the pace), additive peak bandwidth, and parallel host links.
"""

from __future__ import annotations

from ..core.config import PolyMemConfig
from ..core.exceptions import CapacityError, ConfigurationError
from .base import (
    AchievedBandwidth,
    AddressStream,
    DeviceBackend,
    Feasibility,
    LinkModel,
    backend_device,
)
from .fpga import FpgaBramBackend, VectisBramBackend

__all__ = ["ShardedPolyMemBackend"]


class _ParallelLinks(LinkModel):
    """N host links driven concurrently: the payload splits evenly and the
    call returns when the slowest link finishes."""

    def __init__(self, links: list[LinkModel]):
        self._links = links

    def transfer_ns(self, payload_bytes: int) -> float:
        n = len(self._links)
        base, extra = divmod(payload_bytes, n)
        return max(
            link.transfer_ns(base + (1 if i < extra else 0))
            for i, link in enumerate(self._links)
        )

    def signal_ns(self) -> float:
        return max(link.signal_ns() for link in self._links)


class ShardedPolyMemBackend(DeviceBackend):
    """One logical PolyMem spread over ``len(shards)`` boards."""

    def __init__(
        self,
        shards: list[FpgaBramBackend] | None = None,
        n_shards: int = 2,
        name: str | None = None,
    ):
        if shards is None:
            shards = [VectisBramBackend() for _ in range(n_shards)]
        if len(shards) < 2:
            raise ConfigurationError(
                f"sharding needs >= 2 boards, got {len(shards)}"
            )
        self.shards = list(shards)
        self.name = name or f"{len(self.shards)}x-{self.shards[0].name}"
        self._link = _ParallelLinks([s.link for s in self.shards])

    # -- shard geometry ---------------------------------------------------
    def shard_config(self, config: PolyMemConfig) -> PolyMemConfig:
        """The per-board slice: same lane grid and ports, 1/N capacity."""
        n = len(self.shards)
        if config.capacity_bytes % n:
            raise CapacityError(
                f"{config.capacity_bytes} B does not shard over {n} boards"
            )
        return config.with_(capacity_bytes=config.capacity_bytes // n)

    # -- identity ---------------------------------------------------------
    def describe(self) -> dict:
        return {
            "name": self.name,
            "kind": "sharded",
            "shards": len(self.shards),
            "shard_device": getattr(backend_device(self.shards[0]), "name", None),
        }

    # -- capacity / area --------------------------------------------------
    def feasibility(self, config: PolyMemConfig) -> Feasibility:
        try:
            part = self.shard_config(config)
        except (CapacityError, ConfigurationError) as exc:
            return Feasibility(feasible=False, utilization=0.0, reason=str(exc))
        verdicts = [shard.feasibility(part) for shard in self.shards]
        worst = max(verdicts, key=lambda f: f.utilization)
        return Feasibility(
            feasible=all(f.feasible for f in verdicts),
            utilization=worst.utilization,
            reason=next((f.reason for f in verdicts if f.reason), ""),
            detail={"per_shard": worst.detail, "shards": len(self.shards)},
        )

    # -- clock ------------------------------------------------------------
    def clock_mhz(self, config: PolyMemConfig) -> float:
        part = self.shard_config(config)
        return min(shard.clock_mhz(part) for shard in self.shards)

    def paper_mhz(self, config: PolyMemConfig) -> float | None:
        part = self.shard_config(config)
        mhz = [shard.paper_mhz(part) for shard in self.shards]
        if any(v is None for v in mhz):
            return None
        return min(mhz)

    def synthesis(self, config: PolyMemConfig):
        return self.shards[0].synthesis(self.shard_config(config))

    # -- host link --------------------------------------------------------
    @property
    def link(self) -> LinkModel:
        return self._link

    # -- bandwidth --------------------------------------------------------
    def peak_write_gbps(self, config: PolyMemConfig) -> float:
        from ..dse.bandwidth import port_bandwidth_gbps

        part = self.shard_config(config)
        clock = self.clock_mhz(config)
        return len(self.shards) * port_bandwidth_gbps(part, clock)

    def peak_read_gbps(self, config: PolyMemConfig) -> float:
        return self.peak_write_gbps(config) * config.read_ports

    def achieved_bandwidth(
        self, config: PolyMemConfig, stream: AddressStream
    ) -> AchievedBandwidth:
        """Shards serve disjoint contiguous address halves concurrently;
        wall time is the busiest shard's, and traffic counts (bytes moved,
        bursts, row hits and misses) are the shards' sums.

        Addresses past the last shard are served by no board: like
        ``useful_bytes``, ``transferred_bytes`` counts them as they are,
        at no time cost."""
        part = self.shard_config(config)
        shard_words = max(1, part.total_words)
        owner = stream.addresses // shard_words
        peak = self.peak_read_gbps(config)
        busiest_ns = 0.0
        served = transferred = bursts = hits = misses = 0
        for idx, shard in enumerate(self.shards):
            mask = owner == idx
            if not mask.any():
                continue
            sub = AddressStream(
                stream.addresses[mask] - idx * shard_words, stream.word_bytes
            )
            stats = shard.achieved_bandwidth(part, sub)
            busiest_ns = max(busiest_ns, stats.time_ns)
            served += stats.useful_bytes
            transferred += stats.transferred_bytes
            bursts += stats.bursts
            hits += stats.row_hits
            misses += stats.row_misses
        useful = stream.payload_bytes
        achieved = useful / busiest_ns if busiest_ns else 0.0
        return AchievedBandwidth(
            peak_gbps=peak,
            achieved_gbps=min(achieved, peak),
            useful_bytes=useful,
            transferred_bytes=transferred + useful - served,
            time_ns=busiest_ns,
            bursts=bursts,
            row_hits=hits,
            row_misses=misses,
        )
