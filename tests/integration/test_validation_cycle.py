"""Integration: the §IV-A validation cycle across the DSE grid.

The paper validates *every* DSE design with the unique-value read/write
cycle.  Running all 90 full-size designs is minutes of work; this test
covers every (scheme x lanes x ports) combination at reduced capacity —
the capacity axis only changes bank depth, which the addressing tests
already cover exhaustively.

The grid runs as one :mod:`repro.exec` sweep over the vectorized
:func:`validate_points_batch`, exercising the batch path and the result
cache end to end.
"""

import pytest

from repro.core.config import KB, PolyMemConfig
from repro.core.schemes import Scheme
from repro.dse.space import LANE_GRIDS
from repro.exec import ResultCache, run_sweep
from repro.maxpolymem import build_design, validate_design
from repro.maxpolymem.validation import validate_points_batch


def _grid_configs():
    return [
        PolyMemConfig(16 * KB, p=p, q=q, scheme=scheme, read_ports=ports)
        for scheme in Scheme
        for p, q in (LANE_GRIDS[8], LANE_GRIDS[16])
        for ports in (1, 2)
    ]


def test_validation_cycle_grid(tmp_path):
    """Every (scheme x lanes x ports) design validates; the grid runs on
    the repro.exec runtime with a result cache."""
    configs = _grid_configs()
    cache = ResultCache(tmp_path / "cache")

    def sweep():
        return run_sweep(
            "maxpolymem.validate", configs, validate_points_batch,
            params={"max_rows": 16}, cache=cache,
        )

    cold = sweep()
    assert len(cold.values) == len(configs)
    for cfg, payload in zip(configs, cold.values):
        assert payload["config_label"] == cfg.label()
        assert payload["passed"], payload["mismatches"]

    # warm cache: identical outcome without recomputing a single design
    again = sweep()
    assert again.cached
    assert again.values == cold.values


@pytest.mark.parametrize("ports", [3, 4])
def test_validation_cycle_many_ports(ports):
    cfg = PolyMemConfig(16 * KB, p=2, q=4, scheme=Scheme.ReRo, read_ports=ports)
    report = validate_design(build_design(cfg, clock_source="model"), max_rows=8)
    assert report.passed, report.mismatches


def test_validation_cycle_full_512kb_design():
    """One paper-size design validated end to end (capped rows)."""
    cfg = PolyMemConfig(512 * KB, p=2, q=4, scheme=Scheme.RoCo)
    design = build_design(cfg)  # paper clock: 194 MHz from Table IV
    assert design.dfe.clock_mhz == 194
    report = validate_design(design, max_rows=8)
    assert report.passed


def _stage_counters(scheme, monkeypatch):
    """Validate the scorecard's §IV-A config of *scheme*; returns its
    payload and the telemetry counters each stage adds (``fill``,
    ``readback``)."""
    from repro.maxeler.host import Host
    from repro.maxpolymem.validation import validate_config
    from repro.telemetry import Telemetry, session

    marks = []
    begin_stage = Host.begin_stage

    def snapshot(host, name):
        marks.append((name, tel.metrics.to_dict()["counters"]))
        return begin_stage(host, name)

    monkeypatch.setattr(Host, "begin_stage", snapshot)
    cfg = PolyMemConfig(16 * KB, p=2, q=4, scheme=scheme, read_ports=2)
    with session(Telemetry()) as tel:
        payload = validate_config(cfg, max_rows=8)
        marks.append((None, tel.metrics.to_dict()["counters"]))
    assert payload["passed"]
    return payload, {
        name: {k: v - before.get(k, 0) for k, v in after.items()}
        for (name, before), (_, after) in zip(marks, marks[1:])
    }


@pytest.mark.parametrize("scheme", list(Scheme))
def test_fill_stage_claims_its_backlog(scheme, monkeypatch):
    """The fill is one host-queued ``wr_cmd`` backlog: the fused kernel
    claims it as its chunk, so no fill cycle of the scorecard's §IV-A
    configs falls back to scalar for want of a PolyMem plan."""
    payload, stages = _stage_counters(scheme, monkeypatch)
    fill = stages["fill"]
    assert fill.get("sim.plan_rejects.no_plan.polymem", 0) == 0
    assert fill.get("sim.cycles.batched", 0) >= payload["writes"]


@pytest.mark.parametrize("scheme", list(Scheme))
def test_readback_stage_streams_without_horizon_ticks(scheme, monkeypatch):
    """Each port's readback is one command block of every pattern's probes:
    one ``run_kernel`` call per port, so no readback cycle of the
    scorecard's §IV-A configs ticks scalar at a call's horizon."""
    payload, stages = _stage_counters(scheme, monkeypatch)
    readback = stages["readback"]
    assert readback.get("sim.plan_rejects.horizon", 0) == 0
    assert readback.get("sim.cycles.batched", 0) >= payload["reads"] // 2
