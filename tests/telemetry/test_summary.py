"""Tests for snapshot loading and the derived-value summary."""

import json

import pytest

from repro.telemetry import derived_values, load_snapshot, render_summary
from repro.telemetry.context import SNAPSHOT_FORMAT


def snapshot(counters=None, gauges=None, histograms=None, **extra):
    return {
        "format": SNAPSHOT_FORMAT,
        "label": "test",
        "metrics": {
            "counters": counters or {},
            "gauges": gauges or {},
            "histograms": histograms or {},
        },
        **extra,
    }


class TestLoadSnapshot:
    def test_raw_snapshot_dict(self):
        snap = snapshot()
        assert load_snapshot(snap) is snap

    def test_exec_report_with_telemetry_meta(self):
        snap = snapshot()
        report = {
            "format": "repro.exec.report/1",
            "meta": {"telemetry": snap},
        }
        assert load_snapshot(report) is snap

    def test_from_file_path(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(snapshot(counters={"a": 1})))
        assert load_snapshot(path)["metrics"]["counters"] == {"a": 1}

    def test_rejects_unrelated_documents(self):
        with pytest.raises(ValueError):
            load_snapshot({"format": "something/else"})
        with pytest.raises(ValueError):
            load_snapshot({"meta": {}})


class TestDerivedValues:
    def test_stall_and_fallback_percentages(self):
        got = dict(derived_values(snapshot(counters={
            "sim.cycles.scalar": 25,
            "sim.cycles.batched": 75,
            "sim.stall_cycles": 10,
        })))
        assert got["simulated cycles"] == "100"
        assert got["stall cycles"] == "10 (10.00%)"
        assert got["scalar-fallback cycles"] == "25 (25.00%)"

    def test_fallback_reasons_most_frequent_first(self):
        got = dict(derived_values(snapshot(counters={
            "sim.cycles.scalar": 5,
            "sim.plan_rejects": 5,
            "sim.plan_rejects.horizon": 1,
            "sim.plan_rejects.no_plan.polymem": 4,
        })))
        assert got["scalar-fallback reasons"] == "no_plan.polymem 4, horizon 1"

    def test_cache_hit_rates(self):
        got = dict(derived_values(snapshot(counters={
            "polymem.plan_cache.hits": 9,
            "polymem.plan_cache.misses": 1,
            "program.fusion.kernel_cache.hits": 1,
            "program.fusion.kernel_cache.misses": 3,
        })))
        assert got["access plans compiled"] == "1 (10 lookups)"
        assert "plan-cache hit rate" not in got
        assert got["fusion kernel-cache hit rate"] == "25.0%"

    def test_achieved_vs_peak_bandwidth(self):
        got = dict(derived_values(snapshot(gauges={
            "stream.achieved_mbps": {"value": 7680.0},
            "stream.peak_mbps": {"value": 15360.0},
        })))
        assert got["achieved vs peak bandwidth"] == (
            "7680.0 / 15360.0 MB/s (50.0% of peak)"
        )

    def test_pcie_overhead_share(self):
        got = dict(derived_values(snapshot(counters={
            "pcie.ns": 10_000.0,
            "pcie.overhead_ns": 1_000.0,
            "pcie.calls": 4,
            "pcie.payload_bytes": 512,
        })))
        assert got["PCIe time"] == (
            "10.0 us over 4 calls, 512 B payload (10.0% call overhead)"
        )

    def test_exec_cache_hit_rate(self):
        # an older snapshot still carrying the exec.workers gauge derives
        # the cache hit rate and nothing from the gauge
        got = dict(derived_values(snapshot(
            counters={
                "exec.cache.hits": 3,
                "exec.cache.misses": 1,
                "exec.wall_seconds": 2.0,
                "exec.compute_seconds": 6.0,
            },
            gauges={"exec.workers": {"value": 4}},
        )))
        assert got == {"exec cache hit rate": "75.0%"}

    def test_empty_snapshot_derives_nothing(self):
        assert derived_values(snapshot()) == []


class TestPartialSnapshots:
    """Satellite: a truncated/partial snapshot degrades to n/a cells,
    never KeyError — the summary of a broken run is when you need it."""

    def test_snapshot_without_metrics_block(self):
        text = render_summary({"format": SNAPSHOT_FORMAT, "label": "dead"})
        assert "telemetry summary — dead" in text

    def test_metrics_explicitly_null(self):
        text = render_summary({"format": SNAPSHOT_FORMAT, "metrics": None})
        assert "telemetry summary" in text

    def test_missing_counter_group_only(self):
        snap = {
            "format": SNAPSHOT_FORMAT,
            "metrics": {"gauges": {"depth": {"value": 2, "min": 0, "max": 5}}},
        }
        text = render_summary(snap)
        assert "gauges (last / min / max)" in text
        assert "counters" not in text
        assert derived_values(snap) == []

    def test_non_dict_gauge_record_renders_na(self):
        text = render_summary(snapshot(gauges={"depth": 7}))
        assert "n/a / n/a / n/a" in text

    def test_histogram_missing_fields_render_na(self):
        text = render_summary(snapshot(histograms={"sizes": {"count": 2}}))
        assert "2 / n/a / n/a" in text

    def test_truncated_gauge_record_keeps_known_fields(self):
        text = render_summary(snapshot(gauges={"depth": {"value": 3}}))
        assert "3 / n/a / n/a" in text

    def test_derived_section_survives_poisoned_inputs(self):
        # a gauge record of the wrong shape feeds the derived computation:
        # the quantity is skipped, the rest of the summary still renders
        snap = snapshot(
            counters={"sim.cycles.batched": 10},
            gauges={
                "stream.achieved_mbps": "fast",
                "stream.peak_mbps": {"value": 15360.0},
            },
        )
        text = render_summary(snap)
        # the raw row still renders, as n/a
        assert "stream.achieved_mbps  n/a / n/a / n/a" in text
        assert "achieved vs peak bandwidth" not in text
        assert "simulated cycles" in text


class TestRenderSummary:
    def test_sections_present(self):
        text = render_summary(snapshot(
            counters={"sim.cycles.scalar": 1, "sim.cycles.batched": 9},
            gauges={"depth": {"value": 2, "min": 0, "max": 5, "n": 3}},
            histograms={"sizes": {"count": 2, "sum": 6.0, "mean": 3.0,
                                  "min": 2, "max": 4, "buckets": {"4": 2}}},
            trace_events=11,
        ))
        assert "telemetry summary — test" in text
        assert "counters" in text
        assert "gauges (last / min / max)" in text
        assert "histograms (count / mean / max)" in text
        assert "derived" in text
        assert "scalar-fallback cycles" in text
        assert "trace events: 11" in text
