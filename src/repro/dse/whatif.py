"""What-if exploration: PolyMem feasibility across devices and substrates.

The paper targets one board (Vectis / Virtex-6 SX475T).  Two natural
downstream questions are answered here:

* would my configuration fit another FPGA part, and what is the largest
  PolyMem a part can host? — :func:`feasibility_frontier` and
  :func:`max_capacity_kb`, re-running the BRAM arithmetic and area model
  against any :class:`~repro.hw.fpga.FpgaDevice`;
* what does a modern substrate change? — :func:`whatif_devices`, a sweep
  over registered :class:`~repro.backend.base.DeviceBackend`\\ s (Vectis,
  LX240T, DDR/HBM channel systems, multi-DFE sharding) reporting
  feasibility, clocks, peak bandwidth, and — for off-chip substrates —
  achieved bandwidth on a strided workload with and without the
  burst-friendly layout pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..backend import AddressStream, DeviceBackend, get_backend, plan_layout
from ..core.config import KB, PolyMemConfig
from ..core.exceptions import ConfigurationError, SchemeError
from ..core.schemes import Scheme, validate_lane_grid
from ..hw.bram import polymem_bram_usage
from ..hw.fpga import FpgaDevice, VIRTEX6_SX475T, devices
from ..hw.synthesis import SynthesisModel, default_model

__all__ = [
    "DeviceWhatIf",
    "FeasibilityPoint",
    "feasibility_frontier",
    "lane_grid_for",
    "max_capacity_kb",
    "whatif_devices",
]

#: the backends a default what-if sweep compares (>= 3 substrates:
#: on-chip BRAM on two parts, an HBM2 channel stack, DDR channels, and a
#: two-board sharded logical PolyMem)
DEFAULT_WHATIF_BACKENDS = ("vectis", "lx240t", "dram", "hbm2", "dual-dfe")


@dataclass(frozen=True)
class FeasibilityPoint:
    """One (capacity, lanes, ports) point on a device."""

    capacity_kb: int
    lanes: int
    read_ports: int
    bram_pct: float
    logic_pct: float
    feasible: bool


def lane_grid_for(lanes: int, scheme: Scheme = Scheme.ReRo) -> tuple[int, int]:
    """A valid ``p x q`` factorization of *lanes* for *scheme*.

    Prefers the paper's wide grids — the largest ``q <= 8`` dividing
    *lanes* with ``p >= 2`` — which reproduces the historical picks
    (8 = 2x4, 16 = 2x8, 32 = 4x8) and extends to any factorable lane
    count.  Raises :class:`~repro.core.exceptions.ConfigurationError`
    with the failing candidates when no divisor yields a grid the scheme
    accepts (instead of the bare ``KeyError`` this used to throw for
    anything outside {8, 16, 32}).
    """
    if lanes < 2:
        raise ConfigurationError(
            f"a parallel memory needs >= 2 lanes, got {lanes}"
        )
    preferred = [q for q in range(min(8, lanes // 2), 0, -1) if lanes % q == 0]
    fallback = [
        q for q in range(lanes, 8, -1) if lanes % q == 0 and lanes // q >= 1
    ]
    tried = []
    for q in preferred + fallback:
        p = lanes // q
        try:
            validate_lane_grid(scheme, p, q)
        except SchemeError:
            tried.append(f"{p}x{q}")
            continue
        return p, q
    raise ConfigurationError(
        f"no valid p x q lane grid for {lanes} lanes with scheme "
        f"{scheme.value}" + (f" (rejected: {', '.join(tried)})" if tried else "")
    )


def _config(capacity_kb: int, lanes: int, ports: int, scheme: Scheme) -> PolyMemConfig:
    p, q = lane_grid_for(lanes, scheme)
    return PolyMemConfig(capacity_kb * KB, p=p, q=q, scheme=scheme, read_ports=ports)


def max_capacity_kb(
    device: FpgaDevice,
    lanes: int = 8,
    read_ports: int = 1,
    scheme: Scheme = Scheme.ReRo,
) -> int:
    """Largest power-of-two capacity (KB) whose data fits *device*.

    The answer for the paper's device at 1 port is 4096 KB — the "4MB
    parallel memory" headline.
    """
    best = 0
    cap = 64
    while cap <= device.bram_bytes_64bit // 1024 * 2:
        cfg = _config(cap, lanes, read_ports, scheme)
        if polymem_bram_usage(cfg, device.bram36).feasible:
            best = cap
        cap *= 2
    return best


def feasibility_frontier(
    device: FpgaDevice = VIRTEX6_SX475T,
    scheme: Scheme = Scheme.ReRo,
    capacities_kb: tuple[int, ...] = (256, 512, 1024, 2048, 4096),
    lane_counts: tuple[int, ...] = (8, 16),
    port_counts: tuple[int, ...] = (1, 2, 3, 4),
) -> list[FeasibilityPoint]:
    """Evaluate the full grid on *device* (feasible and infeasible points).

    A registered device reuses its per-process :func:`default_model`; an
    unregistered one gets a fresh :class:`SynthesisModel`.
    """
    if devices().get(device.name) == device:
        model = default_model(device.name)
    else:
        model = SynthesisModel(device)
    points = []
    for cap in capacities_kb:
        for lanes in lane_counts:
            for ports in port_counts:
                cfg = _config(cap, lanes, ports, scheme)
                budget = polymem_bram_usage(cfg, device.bram36)
                logic = model.logic_pct(cfg)
                points.append(
                    FeasibilityPoint(
                        capacity_kb=cap,
                        lanes=lanes,
                        read_ports=ports,
                        bram_pct=100 * budget.utilization,
                        logic_pct=logic,
                        feasible=budget.feasible and logic < 100,
                    )
                )
    return points


@dataclass(frozen=True)
class DeviceWhatIf:
    """One backend's row in the substrate sweep."""

    backend: str
    kind: str
    feasible: bool
    clock_mhz: float
    peak_write_gbps: float
    peak_read_gbps: float
    #: achieved GB/s on the strided reference workload, raw
    strided_gbps: float
    #: achieved GB/s on the same workload after the layout pass
    layout_gbps: float
    #: achieved GB/s on an already-sequential stream
    sequential_gbps: float
    detail: dict = field(default_factory=dict, compare=False)

    @property
    def layout_speedup(self) -> float:
        """Gain of the burst-friendly layout pass on the strided workload."""
        return self.layout_gbps / self.strided_gbps if self.strided_gbps else 1.0

    def to_dict(self) -> dict:
        return {
            "backend": self.backend,
            "kind": self.kind,
            "feasible": self.feasible,
            "clock_mhz": self.clock_mhz,
            "peak_write_gbps": self.peak_write_gbps,
            "peak_read_gbps": self.peak_read_gbps,
            "strided_gbps": self.strided_gbps,
            "layout_gbps": self.layout_gbps,
            "sequential_gbps": self.sequential_gbps,
            "layout_speedup": self.layout_speedup,
            "detail": self.detail,
        }


def whatif_devices(
    config: PolyMemConfig | None = None,
    backends: tuple[str, ...] | list[DeviceBackend] = DEFAULT_WHATIF_BACKENDS,
    stride_words: int = 64,
    n_words: int = 1 << 14,
) -> list[DeviceWhatIf]:
    """Sweep one configuration across memory substrates.

    The reference workload is a ``stride_words``-strided read of
    ``n_words`` words — the burst-hostile pattern (a column walk of a
    row-major array) that the layout pass exists to repair.  Each row
    reports the substrate's feasibility verdict, clock, peak Fig. 4/5
    bandwidths, and the achieved bandwidth for the strided stream raw,
    after :func:`~repro.backend.layout.plan_layout`, and for an ideal
    sequential stream.
    """
    if config is None:
        config = PolyMemConfig(512 * KB, p=2, q=4, scheme=Scheme.ReRo)
    strided = AddressStream.strided(
        n_words, stride_words, word_bytes=config.word_bytes
    )
    sequential = AddressStream.sequential(
        n_words, word_bytes=config.word_bytes
    )
    remapped = plan_layout(strided).remap(strided)
    rows = []
    for entry in backends:
        backend = get_backend(entry) if isinstance(entry, str) else entry
        verdict = backend.feasibility(config)
        raw = backend.achieved_bandwidth(config, strided)
        laid = backend.achieved_bandwidth(config, remapped)
        seq = backend.achieved_bandwidth(config, sequential)
        rows.append(
            DeviceWhatIf(
                backend=backend.name,
                kind=backend.describe().get("kind", "?"),
                feasible=verdict.feasible,
                clock_mhz=backend.clock_mhz(config),
                peak_write_gbps=backend.peak_write_gbps(config),
                peak_read_gbps=backend.peak_read_gbps(config),
                strided_gbps=raw.achieved_gbps,
                layout_gbps=laid.achieved_gbps,
                sequential_gbps=seq.achieved_gbps,
                detail={
                    "feasibility": verdict.detail,
                    "strided": raw.to_dict(),
                    "layout": laid.to_dict(),
                    "sequential": seq.to_dict(),
                },
            )
        )
    return rows
