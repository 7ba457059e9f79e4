"""Tests for the unified repro.exec report schema."""

import re

import pytest

from repro.core.exceptions import ConfigurationError
from repro.core.schemes import Scheme
from repro.exec import (
    MODEL_VERSION,
    REPORT_FORMAT,
    Report,
    ReportEntry,
    rel_error,
)
from repro.exec.report import entries_from_series


class TestRelError:
    def test_signed(self):
        assert rel_error(110.0, 100.0) == pytest.approx(0.10)
        assert rel_error(90.0, 100.0) == pytest.approx(-0.10)

    def test_missing_or_zero_reference(self):
        assert rel_error(None, 100.0) is None
        assert rel_error(100.0, None) is None
        assert rel_error(100.0, 0.0) is None


class TestReportEntry:
    def test_compare_within_tolerance(self):
        e = ReportEntry.compare("Table IV", "Fmax [MHz]", 190.0, 194.0, 0.10)
        assert e.ok is True
        assert e.rel_err == pytest.approx(-4 / 194)

    def test_compare_outside_tolerance(self):
        e = ReportEntry.compare("Table IV", "Fmax [MHz]", 120.0, 194.0, 0.10)
        assert e.ok is False

    def test_compare_without_tolerance_is_informational(self):
        e = ReportEntry.compare("Fig. 4", "write BW [GB/s]", 48.0, 51.0)
        assert e.ok is None and e.rel_err is not None


class TestReport:
    def _report(self):
        return Report(
            title="demo report",
            entries=[
                ReportEntry.compare("Table IV", "Fmax A", 190.0, 194.0, 0.10),
                ReportEntry.compare("Table IV", "Fmax B", 100.0, 194.0, 0.10),
                ReportEntry("Fig. 10", "peak copy [MB/s]", measured=15301.5),
            ],
            meta={"source": "test"},
        )

    def test_counts(self):
        r = self._report()
        assert r.n_checked == 2
        assert r.n_passed == 1
        assert not r.all_ok

    def test_model_version_stamped(self):
        assert self._report().meta["model_version"] == MODEL_VERSION

    def test_json_roundtrip(self):
        r = self._report()
        text = r.to_json()
        assert f'"{REPORT_FORMAT}"' in text
        back = Report.from_json(text)
        assert back.title == r.title
        assert back.entries == r.entries
        assert back.meta == r.meta

    def test_from_json_rejects_foreign_payload(self):
        with pytest.raises(ConfigurationError):
            Report.from_json('{"format": "something/else", "entries": []}')

    def test_save(self, tmp_path):
        path = self._report().save(tmp_path / "report.json")
        assert Report.from_json(path.read_text()).title == "demo report"

    def test_render(self):
        text = self._report().render()
        assert "demo report" in text
        assert "[PASS] Fmax A" in text
        assert "[FAIL] Fmax B" in text
        assert "[    ] peak copy [MB/s]" in text
        assert "paper:    194" in text
        assert "rel. err" in text
        assert "1/2 checks passed" in text

    def test_render_sweep_meta(self):
        from repro.exec import run_sweep

        def _noop(configs):
            return [{"v": c} for c in configs]

        sweep = run_sweep("t", range(3), _noop)
        r = self._report()
        r.add_sweep_meta(sweep)
        r.add_sweep_meta(sweep)
        assert r.meta["sweep_points"] == 6
        assert re.search(r"^sweep: 6 points, 0 cached, \d+\.\d{3} s$",
                         r.render(), re.MULTILINE)


def test_entries_from_series():
    series = {
        Scheme.ReRo: [("2x4", 51.1), ("2x8", 99.5)],
        Scheme.RoCo: [("2x4", 49.0)],
    }
    entries = entries_from_series("Fig. 4", series, "write BW [GB/s]")
    assert len(entries) == 3
    assert entries[0].experiment == "Fig. 4"
    assert entries[0].quantity.startswith("write BW [GB/s] [ReRo @ 2x4")
    assert entries[1].measured == 99.5
