"""Tests for the §IV-A validation cycle harness itself."""

import numpy as np
import pytest

from repro.core.config import KB, PolyMemConfig
from repro.core.schemes import Scheme
from repro.maxpolymem import build_design, validate_design


class TestValidateDesign:
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_all_schemes_pass(self, scheme):
        cfg = PolyMemConfig(4 * KB, p=2, q=4, scheme=scheme)
        report = validate_design(build_design(cfg, clock_source="model"))
        assert report.passed, report.mismatches

    def test_multiport(self):
        cfg = PolyMemConfig(4 * KB, p=2, q=4, scheme=Scheme.ReCo, read_ports=3)
        report = validate_design(build_design(cfg, clock_source="model"))
        assert report.passed
        # reads happen on every port
        assert report.reads >= 3 * 4

    def test_16_lanes(self):
        cfg = PolyMemConfig(16 * KB, p=2, q=8, scheme=Scheme.ReRo)
        report = validate_design(build_design(cfg, clock_source="model"))
        assert report.passed

    def test_row_cap_limits_work(self):
        cfg = PolyMemConfig(64 * KB, p=2, q=4, scheme=Scheme.ReO)
        full = validate_design(build_design(cfg, clock_source="model"), max_rows=None)
        capped = validate_design(build_design(cfg, clock_source="model"), max_rows=8)
        assert capped.writes < full.writes
        assert capped.passed and full.passed

    def test_detects_corruption(self):
        """Sanity: a sabotaged memory is reported, not silently passed."""
        cfg = PolyMemConfig(4 * KB, p=2, q=4, scheme=Scheme.ReO)
        design = build_design(cfg, clock_source="model")
        # corrupt the first word read back behind the design's back by
        # monkeypatching both bank load paths: a scalar tick's `step`
        # reads through `read`, a batched chunk gathers through
        # `read_slots`
        banks = design.kernel.memory.banks
        state = {"poisoned": False}

        def poisoned(load):
            def wrapper(*args):
                out = np.array(load(*args))
                if not state["poisoned"]:
                    state["poisoned"] = True
                    out.flat[0] ^= 0xFF
                return out

            return wrapper

        banks.read = poisoned(banks.read)
        banks.read_slots = poisoned(banks.read_slots)
        report = validate_design(design)
        assert not report.passed
        assert report.mismatches

    def test_report_label(self):
        cfg = PolyMemConfig(4 * KB, p=2, q=4, scheme=Scheme.ReTr)
        report = validate_design(build_design(cfg, clock_source="model"))
        assert "ReTr" in report.config_label

    def test_readback_runs_batched(self):
        """The readback waits on a typed stream-fill condition, so the
        engine can batch it instead of ticking every cycle scalar."""
        from repro.maxpolymem.validation import validate_config
        from repro.telemetry import Telemetry, session

        cfg = PolyMemConfig(16 * KB, p=2, q=4, scheme=Scheme.RoCo, read_ports=2)
        with session(Telemetry()) as tel:
            payload = validate_config(cfg, max_rows=8)
        assert payload["passed"]
        assert tel.metrics.to_dict()["counters"]["sim.cycles.batched"] > 0
