"""The backend what-if sweep and the generalized lane-grid factorization."""

import pytest

from repro.backend import get_backend
from repro.core.config import KB, PolyMemConfig
from repro.core.exceptions import ConfigurationError
from repro.core.schemes import Scheme
from repro.dse.whatif import (
    DEFAULT_WHATIF_BACKENDS,
    DeviceWhatIf,
    lane_grid_for,
    whatif_devices,
)


class TestLaneGridFor:
    def test_reproduces_historical_picks(self):
        """The old {8, 16, 32} lookup table is a special case."""
        assert lane_grid_for(8) == (2, 4)
        assert lane_grid_for(16) == (2, 8)
        assert lane_grid_for(32) == (4, 8)

    @pytest.mark.parametrize("lanes", [2, 4, 6, 12, 24, 64, 128])
    def test_generic_lane_counts_factor(self, lanes):
        p, q = lane_grid_for(lanes)
        assert p * q == lanes
        assert q <= 8

    def test_retr_prefers_divisible_grids(self):
        """ReTr needs p | q or q | p; 6 lanes must avoid the 2x3 split."""
        p, q = lane_grid_for(6, Scheme.ReTr)
        assert p * q == 6
        assert p % q == 0 or q % p == 0

    @pytest.mark.parametrize("lanes", [0, 1, -4])
    def test_too_few_lanes_is_a_configuration_error(self, lanes):
        """The seed raised a bare KeyError here; now the failure names
        the constraint."""
        with pytest.raises(ConfigurationError, match="lanes"):
            lane_grid_for(lanes)


class TestWhatifDevices:
    @pytest.fixture(scope="class")
    def rows(self):
        return whatif_devices()

    def test_sweeps_at_least_three_backends(self, rows):
        assert len(DEFAULT_WHATIF_BACKENDS) >= 3
        assert [r.backend for r in rows] == list(DEFAULT_WHATIF_BACKENDS)
        assert {r.kind for r in rows} >= {"bram", "dram", "sharded"}

    def test_default_config_fits_everywhere(self, rows):
        assert all(r.feasible for r in rows)

    def test_bram_rows_achieve_peak_regardless_of_stride(self, rows):
        vectis = next(r for r in rows if r.backend == "vectis")
        assert vectis.strided_gbps == pytest.approx(vectis.peak_read_gbps)
        assert vectis.layout_speedup == pytest.approx(1.0)

    def test_dram_rows_gain_from_layout(self, rows):
        """The ISSUE's acceptance bar, via the sweep surface."""
        for name in ("dram", "hbm2"):
            row = next(r for r in rows if r.backend == name)
            assert row.layout_speedup >= 1.5
            assert row.layout_gbps <= row.peak_read_gbps + 1e-9
            assert row.sequential_gbps >= row.strided_gbps

    def test_wide_stride_on_a_large_stream_runs(self):
        """Stride 1024 over 2**17 words spans 2**27 words; the layout pass
        plans it from the 2**17 words it touches."""
        rows = whatif_devices(stride_words=1024, n_words=1 << 17)
        dram = next(r for r in rows if r.backend == "dram")
        assert dram.layout_gbps == pytest.approx(dram.sequential_gbps)

    def test_accepts_instances_and_subsets(self):
        rows = whatif_devices(backends=[get_backend("hbm2")])
        assert [r.backend for r in rows] == ["hbm2"]

    def test_rows_serialize(self, rows):
        for row in rows:
            doc = row.to_dict()
            assert doc["backend"] == row.backend
            assert doc["layout_speedup"] == row.layout_speedup
            assert doc["detail"]["strided"]["bursts"] >= 0

    def test_infeasible_config_is_reported_not_raised(self):
        """64 MB blows past the SX475T's BRAM but fits an HBM2 stack —
        the sweep reports both verdicts instead of raising."""
        huge = PolyMemConfig(64 * 1024 * KB, p=2, q=4, scheme=Scheme.ReRo)
        rows = {r.backend: r for r in whatif_devices(huge, backends=("vectis", "hbm2"))}
        assert not rows["vectis"].feasible
        assert rows["hbm2"].feasible
        assert isinstance(rows["vectis"], DeviceWhatIf)
