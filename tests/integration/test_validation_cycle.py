"""Integration: the §IV-A validation cycle across the DSE grid.

The paper validates *every* DSE design with the unique-value read/write
cycle.  Running all 90 full-size designs is minutes of work; this test
covers every (scheme x lanes x ports) combination at reduced capacity —
the capacity axis only changes bank depth, which the addressing tests
already cover exhaustively.

The grid runs through the :mod:`repro.exec` runtime (the same path
``python -m repro experiments`` uses), exercising the batched dispatch
and the result cache end to end.
"""

import pytest

from repro.core.config import KB, PolyMemConfig
from repro.core.schemes import Scheme
from repro.dse.space import LANE_GRIDS
from repro.exec import ResultCache
from repro.maxpolymem import build_design, validate_configs, validate_design


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
    reports = validate_configs(configs, max_rows=16, cache=cache)
    assert len(reports) == len(configs)
    for cfg, report in zip(configs, reports):
        assert report.config_label == cfg.label()
        assert report.passed, report.mismatches

    # warm cache: identical outcome without recomputing a single design
    again = validate_configs(configs, max_rows=16, cache=cache)
    assert [r.config_label for r in again] == [r.config_label for r in reports]
    assert all(r.passed for r in again)
    assert cache.hits >= len(configs)


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
