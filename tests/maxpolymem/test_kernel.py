"""Tests for the fused MAX-PolyMem kernel and design assembly."""

import numpy as np
import pytest

from repro.core.config import KB, PolyMemConfig
from repro.core.patterns import PatternKind
from repro.core.plan import AccessBlock
from repro.core.schemes import Scheme
from repro.maxeler.stream import CommandStream, Stream
from repro.maxpolymem import build_design, clock_for
from repro.maxpolymem.kernel import FusedPolyMemKernel


@pytest.fixture
def design():
    cfg = PolyMemConfig(4 * KB, p=2, q=4, scheme=Scheme.ReRo, read_ports=2)
    return build_design(cfg, clock_source="model")


def write_rect(host, i, j, values):
    host.write_stream(
        "wr_cmd", AccessBlock(PatternKind.RECTANGLE, [i], [j], values=[values])
    )


def reads(kind, anchors):
    """A read block of *kind* accesses at *anchors* ``[(i, j), ...]``."""
    ai, aj = zip(*anchors)
    return AccessBlock(kind, ai, aj)


class TestFusedKernel:
    def test_write_then_read(self, design):
        host = design.host()
        write_rect(host, 0, 0, np.arange(8))
        host.run_kernel(max_cycles=50)
        host.write_stream("rd_cmd0", reads(PatternKind.ROW, [(0, 0)]))
        out = design.dfe.manager.host_output("rd_out0")
        host.run_kernel(until=lambda: len(out) == 1, max_cycles=200)
        (result,) = host.read_stream("rd_out0")
        assert result.tolist() == [0, 1, 2, 3, 0, 0, 0, 0]

    def test_read_latency_is_honoured(self, design):
        host = design.host()
        write_rect(host, 0, 0, np.arange(8))
        host.run_kernel(max_cycles=50)
        start = design.dfe.simulator.cycles
        host.write_stream("rd_cmd0", reads(PatternKind.ROW, [(0, 0)]))
        out = design.dfe.manager.host_output("rd_out0")
        host.run_kernel(until=lambda: len(out) == 1, max_cycles=200)
        elapsed = design.dfe.simulator.cycles - start
        assert elapsed >= design.read_latency

    def test_throughput_one_read_per_cycle(self, design):
        """N pipelined reads complete in ~N + latency cycles, not N*latency."""
        host = design.host()
        n = 64
        host.write_stream(
            "rd_cmd0", reads(PatternKind.ROW, [(i % 16, 0) for i in range(n)])
        )
        out = design.dfe.manager.host_output("rd_out0")
        start = design.dfe.simulator.cycles
        host.run_kernel(until=lambda: len(out) == n, max_cycles=5000)
        elapsed = design.dfe.simulator.cycles - start
        assert elapsed <= n + 2 * design.read_latency + 5

    def test_two_ports_stream_concurrently(self, design):
        host = design.host()
        n = 32
        host.write_stream("rd_cmd0", reads(PatternKind.ROW, [(0, 0)] * n))
        host.write_stream("rd_cmd1", reads(PatternKind.ROW, [(1, 0)] * n))
        out0 = design.dfe.manager.host_output("rd_out0")
        out1 = design.dfe.manager.host_output("rd_out1")
        start = design.dfe.simulator.cycles
        host.run_kernel(
            until=lambda: len(out0) == n and len(out1) == n, max_cycles=5000
        )
        elapsed = design.dfe.simulator.cycles - start
        # both ports together take the same wall clock as one port alone
        assert elapsed <= n + 2 * design.read_latency + 5

    def test_concurrent_read_write_cycle(self, design):
        """A read and a write issued in the same cycle both complete, and
        the read sees pre-write data."""
        host = design.host()
        write_rect(host, 0, 0, np.full(8, 5))
        host.run_kernel(max_cycles=50)
        host.write_stream("rd_cmd0", reads(PatternKind.RECTANGLE, [(0, 0)]))
        write_rect(host, 0, 0, np.full(8, 9))
        out = design.dfe.manager.host_output("rd_out0")
        host.run_kernel(until=lambda: len(out) == 1, max_cycles=200)
        (result,) = host.read_stream("rd_out0")
        assert (np.asarray(result) == 5).all()
        host.write_stream("rd_cmd0", reads(PatternKind.RECTANGLE, [(0, 0)]))
        host.run_kernel(until=lambda: len(out) == 1, max_cycles=200)
        (result,) = host.read_stream("rd_out0")
        assert (np.asarray(result) == 9).all()


def _chunk_admitted(read_anchors, write_anchors, policy="read_first"):
    """Whether the fused kernel's chunk proof admits one read stream on
    port 0 and one write stream, each a queued backlog of rectangle
    anchors."""
    cfg = PolyMemConfig(4 * KB, p=2, q=4, scheme=Scheme.ReRo, read_ports=2)
    kernel = FusedPolyMemKernel("polymem", cfg, collision_policy=policy)
    for port in ("rd_cmd0", "wr_cmd"):
        kernel.bind_input(port, CommandStream(port, capacity=None))
    kernel.bind_output("rd_out0", Stream("rd_out0", capacity=None))
    kernel.inputs["rd_cmd0"].push_many(reads(PatternKind.RECTANGLE, read_anchors))
    wi, wj = zip(*write_anchors)
    values = np.zeros((len(wi), 8), dtype=np.uint64)
    kernel.inputs["wr_cmd"].push_many(
        AccessBlock(PatternKind.RECTANGLE, wi, wj, values=values)
    )
    plan = kernel.batch_plan({})
    return plan.validate(len(read_anchors))


class TestChunkProof:
    """A chunk gathers its reads before it scatters its writes, so it is
    admitted exactly when no read observes one of the chunk's writes."""

    def test_read_of_a_slot_written_later_is_admitted(self):
        assert _chunk_admitted([(0, 0), (2, 0)], [(4, 0), (0, 0)])

    def test_read_of_a_slot_written_earlier_is_rejected(self):
        assert not _chunk_admitted([(4, 0), (0, 0)], [(0, 0), (2, 0)])

    @pytest.mark.parametrize(
        "policy, admitted",
        [("read_first", True), ("write_first", False), ("forbid", False)],
    )
    def test_same_cycle_collision_follows_the_policy(self, policy, admitted):
        anchors = [(0, 0), (2, 0), (4, 0)]
        assert _chunk_admitted(anchors, anchors, policy) is admitted

    def test_invalid_access_is_rejected(self):
        assert not _chunk_admitted([(0, 0), (999, 0)], [(4, 0), (6, 0)])


class TestClockSelection:
    def test_paper_clock_on_grid(self):
        cfg = PolyMemConfig(512 * KB, p=2, q=4, scheme=Scheme.ReO)
        assert clock_for(cfg, "paper") == 202

    def test_paper_clock_off_grid_raises(self):
        cfg = PolyMemConfig(4 * KB, p=2, q=4)
        with pytest.raises(KeyError):
            clock_for(cfg, "paper")

    def test_auto_prefers_paper(self):
        cfg = PolyMemConfig(512 * KB, p=2, q=4, scheme=Scheme.ReO)
        assert clock_for(cfg, "auto") == 202

    def test_auto_falls_back_to_model(self):
        cfg = PolyMemConfig(4 * KB, p=2, q=4)
        assert clock_for(cfg, "auto") == pytest.approx(
            clock_for(cfg, "model")
        )

    def test_unknown_source(self):
        cfg = PolyMemConfig(4 * KB, p=2, q=4)
        with pytest.raises(ValueError):
            clock_for(cfg, "vibes")


class TestBuildDesign:
    def test_unknown_style(self):
        cfg = PolyMemConfig(4 * KB, p=2, q=4)
        with pytest.raises(ValueError):
            build_design(cfg, style="artisanal")

    def test_synthesis_report_attached(self, design):
        assert design.synthesis.fmax_mhz > 0
        assert design.synthesis.feasible

    def test_modular_has_more_resource_luts(self):
        cfg = PolyMemConfig(4 * KB, p=2, q=4, scheme=Scheme.ReRo)
        fused = build_design(cfg, style="fused", clock_source="model")
        modular = build_design(cfg, style="modular", clock_source="model")
        assert modular.resource_luts() > fused.resource_luts()

    def test_modular_has_lower_latency_than_fused_default(self):
        """The modular pipeline is 7 stages; the fused kernel models the
        synthesized 14-cycle latency."""
        cfg = PolyMemConfig(4 * KB, p=2, q=4)
        fused = build_design(cfg, style="fused", clock_source="model")
        modular = build_design(cfg, style="modular", clock_source="model")
        assert fused.read_latency == 14
        assert modular.read_latency == 7
