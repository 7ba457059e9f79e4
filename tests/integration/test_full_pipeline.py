"""Capstone integration: the paper's whole flow in one test.

Walks the end-to-end story a user of this library follows:

1. profile the application trace and pick the best configuration (§III-A);
2. build that configuration as a dataflow design and validate it (§IV-A);
3. estimate its synthesis outcome and bandwidth (§IV);
4. execute the optimized schedule on the configured memory;
5. persist and reload the DSE sweep around it.
"""


from repro.core.config import KB, PolyMemConfig
from repro.dse import DesignSpace, explore
from repro.hw.synthesis import default_model
from repro.maxpolymem import build_design, validate_design
from repro.schedule import (
    column_trace,
    customize,
    execute_schedule,
)
from repro.util import load_dse_result, save_dse_result


def test_full_pipeline(tmp_path):
    # 1) the application reads columns -> §III-A picks a column scheme
    trace = column_trace(2, 32)
    customization = customize(trace, lane_grids=[(2, 4)])
    best = customization.best
    assert best.efficiency == 1.0
    assert best.scheme.value in ("ReCo", "RoCo")

    # 2) realize the chosen scheme as a design and validate it
    cfg = PolyMemConfig(
        64 * KB, p=best.p, q=best.q, scheme=best.scheme, read_ports=2
    )
    design = build_design(cfg, clock_source="model")
    report = validate_design(design, max_rows=16)
    assert report.passed, report.mismatches

    # 3) synthesis estimate + bandwidth for the chosen design
    est = default_model().estimate(cfg)
    assert est.feasible
    read_gbps = est.fmax_mhz * 1e6 * cfg.lanes * 8 * cfg.read_ports / 1e9
    assert read_gbps > 10  # a small PolyMem still delivers >10 GB/s

    # 4) run the optimized schedule against the configured memory
    execution = execute_schedule(trace, best)
    assert execution.covered and execution.data_correct
    assert execution.matches_prediction

    # 5) the DSE around it round-trips
    space = DesignSpace(
        capacities_kb=(512,), lane_counts=(8,), read_ports=(1, 2)
    )
    sweep = explore(space)
    p2 = save_dse_result(sweep, tmp_path / "sweep.json")
    assert load_dse_result(p2).peak_read_gbps == sweep.peak_read_gbps
