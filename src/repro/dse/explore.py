"""The DSE sweep runner.

For every feasible grid point the explorer gathers: the paper's Table IV
frequency (when the point is on the paper grid), the calibrated model's
frequency, resource utilizations, and the derived bandwidth figures —
everything Figures 4–8 plot.  Optionally each design is functionally
validated with the paper's §IV-A unique-value read/write cycle.

The sweep routes through :mod:`repro.exec`: sibling points evaluate in
one vectorized batch, and ``cache`` skips previously computed points
(``python -m repro dse`` uses the on-disk cache by default).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..backend import DeviceBackend, get_backend
from ..core.config import PolyMemConfig
from ..core.schemes import Scheme
from ..exec import ResultCache, SweepTask, run_sweep
from ..hw.calibration import table_iv_frequency
from ..hw.synthesis import SynthesisModel, default_model
from ..telemetry import context as _telemetry
from .bandwidth import BandwidthReport, read_bandwidth_gbps_many
from .space import DesignSpace, PAPER_SPACE

__all__ = [
    "DsePoint",
    "DseResult",
    "explore",
    "evaluate_point",
    "evaluate_points_batch",
]


@dataclass(frozen=True)
class DsePoint:
    """One evaluated configuration."""

    config: PolyMemConfig
    paper_mhz: float | None
    model_mhz: float
    logic_pct: float
    lut_pct: float
    bram_pct: float
    validated: bool | None

    @property
    def capacity_kb(self) -> int:
        return self.config.capacity_bytes // 1024

    @property
    def clock_mhz(self) -> float:
        """Best available frequency: paper value on-grid, model otherwise."""
        return self.paper_mhz if self.paper_mhz is not None else self.model_mhz

    @property
    def bandwidth(self) -> BandwidthReport:
        return BandwidthReport(self.config, self.clock_mhz)

    def bandwidth_at(self, source: str) -> BandwidthReport:
        """Bandwidth using the ``"paper"`` or ``"model"`` frequency."""
        if source == "paper":
            if self.paper_mhz is None:
                raise KeyError(f"{self.config.label()} not in Table IV")
            return BandwidthReport(self.config, self.paper_mhz)
        if source == "model":
            return BandwidthReport(self.config, self.model_mhz)
        raise ValueError(f"unknown frequency source {source!r}")


@dataclass
class DseResult:
    """All evaluated points plus lookup helpers."""

    space: DesignSpace
    points: list[DsePoint]
    #: execution accounting of the sweep that produced the points
    #: (None for results reconstructed from disk)
    sweep: SweepResult | None = field(default=None, compare=False, repr=False)
    #: name of the device backend the sweep targeted (None: the default
    #: Vectis path — also what disk-reconstructed results report)
    backend: str | None = field(default=None, compare=False)

    def by_scheme(self, scheme: Scheme) -> list[DsePoint]:
        return [p for p in self.points if p.config.scheme is scheme]

    def lookup(
        self, scheme: Scheme, capacity_kb: int, lanes: int, ports: int
    ) -> DsePoint | None:
        for p in self.points:
            cfg = p.config
            if (
                cfg.scheme is scheme
                and p.capacity_kb == capacity_kb
                and cfg.lanes == lanes
                and cfg.read_ports == ports
            ):
                return p
        return None

    def best(self, key) -> DsePoint:
        """The point maximizing *key* (e.g. aggregated read bandwidth)."""
        return max(self.points, key=key)

    @property
    def peak_read_gbps(self) -> float:
        return max(p.bandwidth.read_gbps for p in self.points)

    @property
    def peak_write_gbps(self) -> float:
        return max(p.bandwidth.write_gbps for p in self.points)


def evaluate_point(
    config: PolyMemConfig,
    validate: bool = False,
    validate_rows: int = 16,
    device: str | None = None,
) -> dict:
    """Evaluate one grid point to its plain-JSON payload.

    This is the scalar :class:`SweepTask` function of the DSE grid.  The
    synthesis model is resolved from the *device* name (fit once, then
    cached by :func:`default_model`).
    """
    model = default_model(device) if device else default_model()
    report = model.estimate(config)
    paper = table_iv_frequency(
        config.scheme,
        config.capacity_bytes // 1024,
        config.lanes,
        config.read_ports,
    )
    validated: bool | None = None
    if validate:
        from ..maxpolymem import build_design, validate_design

        design = build_design(config, clock_source="model")
        validated = validate_design(design, max_rows=validate_rows).passed
    return {
        "paper_mhz": paper,
        "model_mhz": report.fmax_mhz,
        "logic_pct": report.logic_pct,
        "lut_pct": report.lut_pct,
        "bram_pct": report.bram_pct,
        "validated": validated,
    }


def evaluate_points_batch(
    configs,
    validate: bool = False,
    validate_rows: int = 16,
    device: str | None = None,
) -> list[dict]:
    """Vectorized :func:`evaluate_point` over a config array.

    The :class:`SweepTask` ``batch_fn`` for the DSE grid: one
    :meth:`~repro.hw.synthesis.SynthesisModel.estimate_many` pass covers
    every config's synthesis figures, and with ``validate`` the whole
    group goes through :func:`repro.maxpolymem.validation.validate_points_batch`
    (one batched table build and slot-image cycle per config family).
    Each payload is byte-identical to ``evaluate_point(config, ...)`` —
    the contract the batch dispatch in :mod:`repro.exec.runtime` assumes
    and ``tests/dse/test_batch_equivalence.py`` pins.
    """
    configs = list(configs)
    model = default_model(device) if device else default_model()
    reports = model.estimate_many(configs)
    validated: list[bool | None] = [None] * len(configs)
    if validate:
        from ..maxpolymem.validation import validate_points_batch

        payloads = validate_points_batch(configs, max_rows=validate_rows)
        validated = [payload["passed"] for payload in payloads]
    return [
        {
            "paper_mhz": table_iv_frequency(
                cfg.scheme,
                cfg.capacity_bytes // 1024,
                cfg.lanes,
                cfg.read_ports,
            ),
            "model_mhz": report.fmax_mhz,
            "logic_pct": report.logic_pct,
            "lut_pct": report.lut_pct,
            "bram_pct": report.bram_pct,
            "validated": valid,
        }
        for cfg, report, valid in zip(configs, reports, validated)
    ]


def _backend_device(backend: DeviceBackend):
    """The FPGA part a backend synthesizes on, or None for pure-link models.

    BRAM backends carry it directly; channel-system backends expose the
    fabric they sit behind; sharded backends report their first shard's
    part (shards are homogeneous by construction).
    """
    device = getattr(backend, "device", None)
    if device is not None:
        return device
    fabric = getattr(backend, "fabric", None)
    if fabric is not None:
        return _backend_device(fabric)
    shards = getattr(backend, "shards", None)
    if shards:
        return _backend_device(shards[0])
    return None


def _prune_dominated(
    cfgs: list[PolyMemConfig], model: SynthesisModel
) -> tuple[list[PolyMemConfig], int]:
    """Drop grid points that are Pareto-dominated before the sweep runs.

    Dominance is evaluated on exactly the axes — and the exact float
    values — that :func:`repro.dse.pareto.pareto_frontier` uses with its
    default ``frequency_source="auto"``: aggregated read bandwidth at the
    paper clock when on-grid (model clock otherwise), BRAM%, and logic%.
    The bandwidths come from :func:`read_bandwidth_gbps_many` and the
    utilizations from :meth:`~repro.hw.synthesis.SynthesisModel.estimate_many`,
    both bitwise equal to their scalar counterparts, so a point pruned
    here is provably dominated in the full result too; by transitivity of
    dominance every survivor's frontier membership is unchanged.  (The
    pruned *point list* is a subset, which is why ``explore`` keeps this
    off by default.)
    """
    reports = model.estimate_many(cfgs)
    clocks = [
        paper if paper is not None else report.fmax_mhz
        for paper, report in (
            (
                table_iv_frequency(
                    cfg.scheme,
                    cfg.capacity_bytes // 1024,
                    cfg.lanes,
                    cfg.read_ports,
                ),
                report,
            )
            for cfg, report in zip(cfgs, reports)
        )
    ]
    read = read_bandwidth_gbps_many(cfgs, clocks)
    bram = np.array([r.bram_pct for r in reports], dtype=np.float64)
    logic = np.array([r.logic_pct for r in reports], dtype=np.float64)
    no_worse = (
        (read[:, None] >= read[None, :])
        & (bram[:, None] <= bram[None, :])
        & (logic[:, None] <= logic[None, :])
    )
    better = (
        (read[:, None] > read[None, :])
        | (bram[:, None] < bram[None, :])
        | (logic[:, None] < logic[None, :])
    )
    dominated = (no_worse & better).any(axis=0)
    keep = [cfg for cfg, gone in zip(cfgs, dominated) if not gone]
    return keep, int(dominated.sum())


def explore(
    space: DesignSpace = PAPER_SPACE,
    validate: bool = False,
    validate_rows: int = 16,
    cache: ResultCache | None = None,
    prune: bool = False,
    backend: str | DeviceBackend | None = None,
) -> DseResult:
    """Run the full DSE sweep over *space* through :mod:`repro.exec`.

    With ``validate=True`` every point's design is built and put through
    the §IV-A validation cycle on its first *validate_rows* logical rows.

    The grid runs through :func:`repro.exec.run_sweep`, which consults
    *cache* first.

    Sibling grid points evaluate through :func:`evaluate_points_batch` —
    one vectorized pass for the whole grid, byte-identical to per-point
    :func:`evaluate_point` (the reference
    ``tests/dse/test_batch_equivalence.py`` pins it against).  ``prune``
    drops Pareto-dominated points *before* evaluation: the frontier of the result is provably unchanged (see
    :func:`_prune_dominated`) but the point list is a subset, so it is
    off by default.

    ``backend`` retargets the sweep at a registered device backend (name
    or instance, ``python -m repro dse --backend ...``): the space's
    synthesis device is swapped for the backend's fabric part and the
    result records the backend name.  The default (``None``) leaves the
    seed Vectis path untouched — and ``backend="vectis"`` resolves to the
    same device, so its payloads are byte-identical to the default's.
    """
    backend_name: str | None = None
    if backend is not None:
        be = backend if isinstance(backend, DeviceBackend) else get_backend(backend)
        backend_name = be.name
        device = _backend_device(be)
        if device is not None and device.name != space.device.name:
            space = replace(space, device=device)
    cfgs = list(space.points(feasible_only=True))
    candidates = len(cfgs)
    pruned = 0
    if prune:
        cfgs, pruned = _prune_dominated(cfgs, default_model(space.device.name))
    params = {
        "validate": validate,
        "validate_rows": validate_rows,
        "device": space.device.name,
    }
    tasks = [
        SweepTask(
            "dse.point",
            evaluate_point,
            cfg,
            params=params,
            batch_fn=evaluate_points_batch,
        )
        for cfg in cfgs
    ]
    sweep = run_sweep(tasks, cache=cache)
    tel = _telemetry.active()
    if tel is not None:
        metrics = tel.metrics
        metrics.counter("dse.batch.candidates").inc(candidates)
        metrics.counter("dse.batch.pruned").inc(pruned)
        metrics.counter("dse.batch.configs").inc(sweep.batched_points)
        metrics.counter("dse.batch.passes").inc(sweep.batch_calls)
    points = [
        DsePoint(config=cfg, **value) for cfg, value in zip(cfgs, sweep.values())
    ]
    return DseResult(space=space, points=points, sweep=sweep, backend=backend_name)
