"""Tests for JSON persistence of DSE sweeps."""

import json

import pytest

from repro.core.exceptions import ConfigurationError
from repro.core.schemes import Scheme
from repro.dse import DesignSpace, explore
from repro.util import load_dse_result, save_dse_result


@pytest.fixture(scope="module")
def small_result():
    space = DesignSpace(
        capacities_kb=(512,),
        lane_counts=(8,),
        read_ports=(1, 2),
        schemes=(Scheme.ReRo, Scheme.ReTr),
    )
    return explore(space)


class TestDsePersistence:
    def test_roundtrip(self, small_result, tmp_path):
        path = save_dse_result(small_result, tmp_path / "dse.json")
        loaded = load_dse_result(path)
        assert len(loaded.points) == len(small_result.points)
        for a, b in zip(loaded.points, small_result.points):
            assert a.config == b.config
            assert a.model_mhz == b.model_mhz
            assert a.paper_mhz == b.paper_mhz
            assert a.bram_pct == b.bram_pct

    def test_loaded_result_is_queryable(self, small_result, tmp_path):
        path = save_dse_result(small_result, tmp_path / "dse.json")
        loaded = load_dse_result(path)
        point = loaded.lookup(Scheme.ReRo, 512, 8, 2)
        assert point is not None
        assert loaded.peak_read_gbps == small_result.peak_read_gbps
        assert loaded.space.columns() == small_result.space.columns()

    def test_format_tag_checked(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "something/else"}))
        with pytest.raises(ConfigurationError, match="format"):
            load_dse_result(bad)

    def test_json_is_stable_and_readable(self, small_result, tmp_path):
        path = save_dse_result(small_result, tmp_path / "dse.json")
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro.dse/1"
        assert payload["points"][0]["config"]["scheme"] in ("ReRo", "ReTr")

