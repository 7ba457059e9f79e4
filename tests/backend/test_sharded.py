"""The multi-DFE sharded logical PolyMem."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import AddressStream, get_backend
from repro.backend.dram import DDR3_LMEM, DramChannelBackend
from repro.backend.sharded import ShardedPolyMemBackend
from repro.core.config import KB, PolyMemConfig
from repro.core.exceptions import CapacityError, ConfigurationError
from repro.core.schemes import Scheme


def cfg(capacity_kb=1024):
    return PolyMemConfig(capacity_kb * KB, p=2, q=4, scheme=Scheme.ReRo)


class TestShardGeometry:
    def test_shard_config_halves_capacity(self):
        be = get_backend("dual-dfe")
        part = be.shard_config(cfg(1024))
        assert part.capacity_bytes == 512 * KB
        assert (part.p, part.q, part.read_ports) == (2, 4, 1)

    def test_indivisible_capacity_is_infeasible(self):
        three = ShardedPolyMemBackend(n_shards=3, name="tri")
        odd = cfg(1024)  # 1 MB does not split over 3 boards
        with pytest.raises(CapacityError):
            three.shard_config(odd)
        verdict = three.feasibility(odd)
        assert not verdict.feasible
        assert "shard" in verdict.reason

    def test_needs_two_boards(self):
        with pytest.raises(ConfigurationError):
            ShardedPolyMemBackend(n_shards=1)


class TestLockstep:
    def test_clock_is_slowest_shard(self):
        be = get_backend("dual-dfe")
        part = be.shard_config(cfg())
        assert be.clock_mhz(cfg()) == min(
            s.clock_mhz(part) for s in be.shards
        )

    def test_peak_bandwidth_is_additive(self):
        """Identical shards run at the single-board clock, so the logical
        peak is exactly N times one board's (at the shard capacity)."""
        be = get_backend("dual-dfe")
        part = be.shard_config(cfg())
        assert be.peak_write_gbps(cfg()) == pytest.approx(
            2 * be.shards[0].peak_write_gbps(part)
        )
        assert be.peak_read_gbps(cfg()) == pytest.approx(
            be.peak_write_gbps(cfg()) * cfg().read_ports
        )

    def test_feasibility_doubles_reach(self):
        """8 MB at 1 port exceeds one Vectis but shards over two."""
        big = cfg(8192)
        assert not get_backend("vectis").feasibility(big).feasible
        assert get_backend("dual-dfe").feasibility(big).feasible


class TestShardedStreams:
    def test_balanced_stream_uses_both_boards(self):
        be = get_backend("dual-dfe")
        c = cfg()
        words = c.total_words
        half = AddressStream.sequential(words // 4)
        spread = AddressStream(
            np.concatenate(
                [half.addresses, half.addresses + words // 2]
            )
        )
        balanced = be.achieved_bandwidth(c, spread)
        skewed = be.achieved_bandwidth(
            c, AddressStream.sequential(words // 2)
        )
        assert balanced.achieved_gbps > 1.5 * skewed.achieved_gbps
        assert balanced.achieved_gbps <= balanced.peak_gbps

    def test_parallel_links_split_payload(self):
        be = get_backend("dual-dfe")
        single = be.shards[0].link
        assert be.link.transfer_ns(1 << 20) < single.transfer_ns(1 << 20)
        assert be.link.signal_ns() == single.signal_ns()


class _RecordingDram(DramChannelBackend):
    """A DDR shard that keeps every stats record it returns."""

    def __init__(self):
        super().__init__(DDR3_LMEM)
        self.seen = []

    def achieved_bandwidth(self, config, stream):
        stats = super().achieved_bandwidth(config, stream)
        self.seen.append(stats)
        return stats


class TestShardStatsAddUp:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, cfg().total_words - 1), max_size=96))
    def test_stats_are_the_sum_of_the_shards(self, addrs):
        shards = [_RecordingDram(), _RecordingDram()]
        be = ShardedPolyMemBackend(shards=shards, name="dual-ddr")
        stream = AddressStream(np.array(addrs, dtype=np.int64))
        total = be.achieved_bandwidth(cfg(), stream)
        seen = [stats for shard in shards for stats in shard.seen]
        assert total.useful_bytes == sum(s.useful_bytes for s in seen)
        assert total.transferred_bytes == sum(
            s.transferred_bytes for s in seen
        )
        assert total.bursts == sum(s.bursts for s in seen)
        assert total.row_hits == sum(s.row_hits for s in seen)
        assert total.row_misses == sum(s.row_misses for s in seen)
        assert total.time_ns == max((s.time_ns for s in seen), default=0.0)


class TestDescribe:
    def test_bram_shards_name_their_part(self):
        assert get_backend("dual-dfe").describe() == {
            "name": "dual-dfe",
            "kind": "sharded",
            "shards": 2,
            "shard_device": "xc6vsx475t",
        }

    def test_dram_shards_go_through_whatif(self):
        """DDR shards have no ``device`` of their own: the description
        names the fabric part they sit behind, and a what-if row runs."""
        from repro.dse.whatif import whatif_devices

        shards = [DramChannelBackend(DDR3_LMEM), DramChannelBackend(DDR3_LMEM)]
        be = ShardedPolyMemBackend(shards=shards, name="dual-ddr")
        assert be.describe()["shard_device"] == shards[0].fabric.device.name
        (row,) = whatif_devices(backends=[be])
        assert row.backend == "dual-ddr" and row.kind == "sharded"
        assert row.strided_gbps > 0
