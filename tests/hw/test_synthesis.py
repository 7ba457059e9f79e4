"""Tests for the calibrated synthesis model and its paper-shape claims."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core.config import KB, PolyMemConfig
from repro.core.schemes import Scheme
from repro.hw import calibration
from repro.hw.crossbar import design_shuffles
from repro.hw.fpga import VIRTEX6_SX475T, devices
from repro.hw.synthesis import (
    FREQ_COEF_TABLE,
    LUT_TO_LOGIC_RATIO,
    SynthesisModel,
    default_model,
    freq_fit_digest,
    freq_fit_inputs,
)
from repro.telemetry import Telemetry, session


@pytest.fixture(scope="module")
def model():
    return default_model()


def cfg_for(lanes, cap_kb, ports=1, scheme=Scheme.ReRo):
    p, q = {8: (2, 4), 16: (2, 8)}[lanes]
    return PolyMemConfig(cap_kb * KB, p=p, q=q, scheme=scheme, read_ports=ports)


class TestCalibrationData:
    def test_table_iv_is_complete(self):
        for scheme, row in calibration.TABLE_IV_MHZ.items():
            assert len(row) == len(calibration.TABLE_IV_COLUMNS)

    def test_table_iv_grid_builds_all_cells(self):
        cells = calibration.table_iv_grid()
        assert len(cells) == 5 * 18

    def test_headline_frequencies(self):
        """Paper: highest frequency 202 MHz (ReO/512K/8L/1P); highest
        multiview 196 MHz (ReCo); minimum 77 MHz."""
        all_vals = [v for row in calibration.TABLE_IV_MHZ.values() for v in row]
        assert max(all_vals) == 202
        assert min(all_vals) == 77
        assert calibration.table_iv_frequency(Scheme.ReO, 512, 8, 1) == 202
        multiview = [
            v
            for s, row in calibration.TABLE_IV_MHZ.items()
            if s is not Scheme.ReO
            for v in row
        ]
        assert max(multiview) == 196

    def test_lookup_outside_grid(self):
        assert calibration.table_iv_frequency(Scheme.ReO, 4096, 8, 2) is None


class TestFrequencyModel:
    def test_fit_quality(self, model):
        assert model.freq_fit_stats["r2"] > 0.8
        assert model.freq_fit_stats["mean_abs_pct_err"] < 10

    def test_peak_frequency_cell(self, model):
        """The fastest paper cell stays the fastest under the model family
        (within the 8-lane single-port group)."""
        f = model.frequency_mhz(cfg_for(8, 512, 1, Scheme.ReO))
        assert f == pytest.approx(202, rel=0.10)

    def test_monotone_in_capacity(self, model):
        freqs = [model.frequency_mhz(cfg_for(8, kb)) for kb in (512, 1024, 2048, 4096)]
        assert freqs == sorted(freqs, reverse=True)

    def test_monotone_in_ports(self, model):
        freqs = [model.frequency_mhz(cfg_for(8, 512, r)) for r in (1, 2, 3, 4)]
        assert freqs == sorted(freqs, reverse=True)

    def test_more_lanes_is_slower(self, model):
        assert model.frequency_mhz(cfg_for(16, 512)) < model.frequency_mhz(
            cfg_for(8, 512)
        )

    def test_deterministic(self):
        m1, m2 = SynthesisModel(), SynthesisModel()
        cfg = cfg_for(8, 1024, 2)
        assert m1.frequency_mhz(cfg) == m2.frequency_mhz(cfg)


def _live_coef(device):
    from scipy.optimize import nnls

    return nnls(*freq_fit_inputs(device))[0]


class TestCoefficientTable:
    """The shipped NNLS coefficients stand in for the live fit exactly."""

    @pytest.mark.parametrize("name", sorted(devices()))
    def test_table_equals_live_fit(self, name):
        device = devices()[name]
        key = freq_fit_digest(*freq_fit_inputs(device))
        live = _live_coef(device)
        entry = f"    {key!r}: {tuple(float(c) for c in live)!r},"
        assert key in FREQ_COEF_TABLE, f"table misses; paste:\n{entry}"
        np.testing.assert_array_equal(
            np.array(FREQ_COEF_TABLE[key]),
            live,
            err_msg=f"stale table entry; paste:\n{entry}",
        )
        np.testing.assert_array_equal(SynthesisModel(device)._freq_coef, live)

    def test_table_hit_counts_no_live_fit(self):
        tel = Telemetry()
        with session(tel):
            SynthesisModel()
        assert "hw.fit.live.table_miss" not in tel.snapshot()["metrics"]["counters"]

    def test_changed_cell_misses_and_fits_live(self, monkeypatch):
        row = list(calibration.TABLE_IV_MHZ[Scheme.ReO])
        row[0] += 1
        monkeypatch.setitem(calibration.TABLE_IV_MHZ, Scheme.ReO, tuple(row))
        key = freq_fit_digest(*freq_fit_inputs(VIRTEX6_SX475T))
        assert key not in FREQ_COEF_TABLE
        tel = Telemetry()
        with session(tel):
            model = SynthesisModel(VIRTEX6_SX475T)
        counters = tel.snapshot()["metrics"]["counters"]
        assert counters["hw.fit.live.table_miss"] == 1
        np.testing.assert_array_equal(
            model._freq_coef, _live_coef(VIRTEX6_SX475T)
        )

    def test_cli_never_imports_scipy_optimize(self, tmp_path):
        script = (
            "import sys\n"
            "import repro, repro.cli, repro.dse, repro.backend\n"
            "from repro.hw.synthesis import default_model\n"
            "default_model()\n"
            "assert repro.cli.main(['whatif']) == 0\n"
            "assert 'scipy.optimize' not in sys.modules, 'scipy.optimize'\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, REPRO_CACHE_DIR=str(tmp_path)),
        )
        assert proc.returncode == 0, proc.stderr


class TestLogicModel:
    def test_exact_on_calibration_points(self, model):
        assert model.logic_fit_stats["max_abs_err_pp"] < 0.5

    def test_paper_prose_points(self, model):
        assert model.logic_pct(cfg_for(8, 512, 1, Scheme.ReO)) == pytest.approx(
            10.58, abs=0.3
        )
        assert model.logic_pct(cfg_for(8, 512, 4, Scheme.ReRo)) == pytest.approx(
            22.34, abs=0.3
        )
        assert model.logic_pct(cfg_for(16, 512, 1, Scheme.ReRo)) == pytest.approx(
            23.73, abs=0.3
        )

    def test_logic_under_38_pct_everywhere(self, model):
        """§IV-C summary: logic utilization stays under 38% on the grid."""
        for cfg, _ in calibration.table_iv_grid():
            assert model.logic_pct(cfg) < 38.0

    def test_lut_within_paper_range(self, model):
        """LUT utilization varies between ~7% and 28% (paper Fig. 7)."""
        luts = [model.lut_pct(cfg) for cfg, _ in calibration.table_iv_grid()]
        assert min(luts) > 6.0
        assert max(luts) < 28.0

    def test_capacity_barely_moves_logic(self, model):
        """Paper: 8-lane 1-port logic varies only 10.58% -> 13.05% from
        512 KB to 4 MB."""
        lo = model.logic_pct(cfg_for(8, 512, 1, Scheme.ReO))
        hi = model.logic_pct(cfg_for(8, 4096, 1, Scheme.RoCo))
        assert hi - lo < 3.0

    def test_ports_roughly_double_logic(self, model):
        """Paper: 1 -> 4 ports takes ReRo/512K/8L from 10.78% to 22.34%."""
        one = model.logic_pct(cfg_for(8, 512, 1))
        four = model.logic_pct(cfg_for(8, 512, 4))
        assert 1.8 < four / one < 2.4

    def test_supralinear_lane_doubling(self, model):
        """Paper: 8 -> 16 lanes is supra-linear (10.78% -> 23.73%)."""
        eight = model.logic_pct(cfg_for(8, 512, 1))
        sixteen = model.logic_pct(cfg_for(16, 512, 1))
        assert sixteen / eight > 2.0


class TestEstimate:
    def test_report_fields(self, model):
        r = model.estimate(cfg_for(8, 512))
        assert r.fmax_mhz > 0 and r.feasible
        assert r.period_ns == pytest.approx(1e3 / r.fmax_mhz)
        assert r.lut_pct == pytest.approx(r.logic_pct * LUT_TO_LOGIC_RATIO)

    def test_infeasible_detected(self, model):
        r = model.estimate(cfg_for(16, 4096, 2))
        assert not r.feasible

    def test_default_model_cached(self):
        assert default_model() is default_model()

    def test_devices_registry(self):
        assert "xc6vsx475t" in devices()
        assert VIRTEX6_SX475T.bram_bytes_64bit == 1064 * 4096


class TestShuffleInventory:
    def test_counts(self):
        inv = design_shuffles(cfg_for(8, 512, 3))
        assert inv.data_crossbars == 4  # 3 read + 1 write
        assert inv.addr_crossbars == 4
        assert inv.total_crossbars == 8

    def test_benes_cheaper_than_full(self):
        cfg = cfg_for(16, 512)
        assert (
            design_shuffles(cfg, "benes").total_luts
            < design_shuffles(cfg, "full").total_luts
        )

    def test_unknown_realization(self):
        with pytest.raises(ValueError):
            design_shuffles(cfg_for(8, 512), "quantum")

    def test_quadratic_lane_growth(self):
        l8 = design_shuffles(cfg_for(8, 512)).total_luts
        l16 = design_shuffles(cfg_for(16, 512)).total_luts
        assert 3.5 < l16 / l8 < 4.6
