"""Tests for the STREAM harness, the cycle model, and the Fig. 10 claims."""

import numpy as np
import pytest

from repro.core.config import PolyMemConfig
from repro.core.schemes import Scheme
from repro.stream_bench import (
    COPY,
    PIPELINE_SLACK_CYCLES,
    SCALE,
    SUM,
    TRIAD,
    StreamHarness,
    all_apps,
    build_stream_design,
    sweep_fig10,
)


def small_harness(rows=36, cols=32, read_ports=2):
    cfg = PolyMemConfig(
        rows * cols * 8,
        p=2,
        q=4,
        scheme=Scheme.RoCo,
        read_ports=read_ports,
        rows=rows,
        cols=cols,
    )
    return StreamHarness(build_stream_design(cfg, clock_mhz=120))


class TestApps:
    def test_canonical_order(self):
        assert [a.name for a in all_apps()] == ["Copy", "Scale", "Sum", "Triad"]

    def test_traffic_accounting(self):
        assert COPY.bytes_per_element == 16
        assert SCALE.bytes_per_element == 16
        assert SUM.bytes_per_element == 24
        assert TRIAD.bytes_per_element == 24

    def test_flops(self):
        assert COPY.flops_per_element == 0
        assert TRIAD.flops_per_element == 2

    def test_references(self):
        a, b, c = np.array([1.0]), np.array([2.0]), np.array([4.0])
        assert COPY.expected(a, b, c, 3.0) == [1.0]
        assert SCALE.expected(a, b, c, 3.0) == [6.0]
        assert SUM.expected(a, b, c, 3.0) == [6.0]
        assert TRIAD.expected(a, b, c, 3.0) == [14.0]


class TestFunctionalCorrectness:
    @pytest.mark.parametrize("app", all_apps(), ids=lambda a: a.name)
    def test_each_app_verifies(self, app):
        """run() raises if the offloaded destination array is wrong, so a
        clean return IS the correctness assertion."""
        h = small_harness()
        m = h.run(app, vectors=12, scalar=2.5)
        assert m.app_name == app.name
        assert m.elements == 12 * 8

    def test_verification_catches_corruption(self):
        h = small_harness()
        # sabotage: poison one word of band C (the Copy destination)
        h.load_arrays(vectors=12)
        original_run_app = h.run_app

        def sabotaged(app, vectors, scalar=3.0):
            cycles = original_run_app(app, vectors, scalar)
            mem = h.design.polymem.memory
            snap = mem.dump().copy()
            band = h.design.controller.band_rows
            # flip exponent bits — low-mantissa flips are below the
            # verification's relative tolerance
            snap[2 * band, 0] ^= np.uint64(0x7FF0000000000000)
            mem.load(snap)
            return cycles

        h.run_app = sabotaged
        from repro.core.exceptions import SimulationError

        with pytest.raises(SimulationError, match="does not match"):
            h.run(COPY, vectors=12)


class TestCycleModel:
    @pytest.mark.parametrize("vectors", [4, 16, 48])
    @pytest.mark.parametrize("app", all_apps(), ids=lambda a: a.name)
    def test_analytic_matches_simulator(self, app, vectors):
        """cycles = vectors + read_latency + slack, exactly."""
        h = small_harness()
        measured = h.run(app, vectors=vectors)
        analytic = h.measure_analytic(app, vectors)
        assert measured.cycles_per_run == analytic.cycles_per_run

    def test_slack_constant_is_two(self):
        h = small_harness()
        m = h.run(COPY, vectors=20)
        assert m.cycles_per_run == 20 + h.design.polymem.read_latency + 2
        assert PIPELINE_SLACK_CYCLES == 2


class TestMeasurementArithmetic:
    def test_peak_matches_paper_formula(self):
        """2 ports x 8 lanes x 8 B x 120 MHz = 15,360 MB/s."""
        h = small_harness()
        m = h.measure_analytic(COPY, 10)
        assert m.peak_mbps == pytest.approx(15_360)

    def test_seconds_per_run(self):
        h = small_harness()
        m = h.measure_analytic(COPY, 100)
        expect = 300e-9 + m.cycles_per_run / 120e6
        assert m.seconds_per_run == pytest.approx(expect)
        assert m.total_seconds == pytest.approx(1000 * expect)

    def test_overhead_hurts_small_sizes(self):
        h = small_harness()
        small = h.measure_analytic(COPY, 4)
        large = h.measure_analytic(COPY, 48)
        assert small.efficiency < large.efficiency


class TestFig10:
    @pytest.fixture(scope="class")
    def harness(self):
        return StreamHarness()  # the paper's full-size design

    def test_full_size_exceeds_99_pct(self, harness):
        """The paper's headline: >99% of 15,360 MB/s at ~700 KB."""
        m = harness.measure_analytic(COPY, harness.max_vectors, runs=1000)
        assert m.peak_mbps == pytest.approx(15_360)
        assert m.efficiency > 0.99
        # within 1% of the paper's measured 15,301 MB/s
        assert m.mbps == pytest.approx(15_301, rel=0.01)

    def test_sweep_shape(self, harness):
        pts = sweep_fig10(harness=harness)
        assert len(pts) == 20
        # monotone ramp towards the sustained plateau
        effs = [p.efficiency for p in pts]
        assert effs == sorted(effs)
        assert pts[-1].copied_kb == pytest.approx(680, abs=1)
        assert pts[-1].efficiency > 0.99

    def test_sweep_custom_sizes(self, harness):
        pts = sweep_fig10(sizes_kb=[1, 10, 100], harness=harness)
        assert len(pts) == 3
        assert pts[0].efficiency < 0.9  # overhead-dominated

    def test_max_array_is_paper_limit(self, harness):
        """170 x 512 x 8 B ~ 700 KB per array."""
        assert harness.max_vectors * harness.lanes * 8 == 170 * 512 * 8


class TestClosedFormWithoutDesign:
    """``StreamHarness()`` reads the paper record, not a built design."""

    @pytest.fixture(scope="class")
    def pair(self):
        return StreamHarness(), StreamHarness(build_stream_design())

    def test_builds_no_design(self):
        harness = StreamHarness()
        sweep_fig10(harness=harness)
        harness.measure_analytic(COPY, harness.max_vectors)
        assert "design" not in vars(harness)

    def test_record_equals_the_built_designs(self, pair):
        paper, built = pair
        assert paper.closed_form == built.closed_form

    @pytest.mark.parametrize("app", all_apps(), ids=lambda a: a.name)
    def test_measure_analytic_agrees(self, pair, app):
        paper, built = pair
        for vectors in (1, 100, paper.max_vectors):
            assert paper.measure_analytic(app, vectors) == built.measure_analytic(
                app, vectors
            )

    def test_sweep_fig10_agrees(self, pair):
        paper, built = pair
        assert sweep_fig10(harness=paper) == sweep_fig10(harness=built)
