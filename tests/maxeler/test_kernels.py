"""Unit tests for the generic kernel library and the tick simulator."""

import pytest

from repro.core.exceptions import SimulationError
from repro.maxeler import (
    DFE,
    BinOpKernel,
    DelayKernel,
    DemuxKernel,
    Manager,
    MapKernel,
    MuxKernel,
    SinkKernel,
    SourceKernel,
)


def build_linear(*kernels, capacity=16):
    """Wire kernels in a chain source->...->sink and return the manager."""
    mgr = Manager("linear")
    for k in kernels:
        mgr.add_kernel(k)
    for a, b in zip(kernels, kernels[1:]):
        port_out = "out"
        port_in = "in"
        mgr.connect(a, port_out, b, port_in, capacity=capacity)
    return mgr


class TestPipelines:
    def test_source_to_sink(self):
        src, snk = SourceKernel("src", range(5)), SinkKernel("snk")
        mgr = build_linear(src, snk)
        DFE(mgr, 100).simulator.run()
        assert snk.collected == [0, 1, 2, 3, 4]

    def test_map(self):
        src = SourceKernel("src", [1, 2, 3])
        sq = MapKernel("sq", lambda x: x * x)
        snk = SinkKernel("snk")
        DFE(build_linear(src, sq, snk), 100).simulator.run()
        assert snk.collected == [1, 4, 9]

    def test_delay_preserves_order_and_latency(self):
        src = SourceKernel("src", range(4))
        dly = DelayKernel("dly", 5)
        snk = SinkKernel("snk")
        res = DFE(build_linear(src, dly, snk), 100).simulator.run()
        assert snk.collected == [0, 1, 2, 3]
        # last element leaves >= 5 cycles after entering
        assert res.cycles >= 4 + 5

    def test_delay_single_element_long_latency(self):
        """A lone element must survive an idle pipeline (regression: the
        simulator used to flag the latency wait as a deadlock)."""
        src = SourceKernel("src", [7])
        dly = DelayKernel("dly", 20)
        snk = SinkKernel("snk")
        DFE(build_linear(src, dly, snk), 100).simulator.run()
        assert snk.collected == [7]

    def test_delay_validates_latency(self):
        with pytest.raises(SimulationError):
            DelayKernel("d", 0)

    def test_binop(self):
        mgr = Manager("add")
        a = mgr.add_kernel(SourceKernel("a", [1, 2, 3]))
        b = mgr.add_kernel(SourceKernel("b", [10, 20, 30]))
        add = mgr.add_kernel(BinOpKernel("add", lambda x, y: x + y))
        snk = mgr.add_kernel(SinkKernel("snk"))
        mgr.connect(a, "out", add, "a")
        mgr.connect(b, "out", add, "b")
        mgr.connect(add, "out", snk, "in")
        DFE(mgr, 100).simulator.run()
        assert snk.collected == [11, 22, 33]

    def test_backpressure_stalls_producer(self):
        """A slow consumer with a tiny FIFO must not lose data."""
        mgr = Manager("bp")
        src = mgr.add_kernel(SourceKernel("src", range(50)))
        snk = mgr.add_kernel(SinkKernel("snk"))
        mgr.connect(src, "out", snk, "in", capacity=1)
        DFE(mgr, 100).simulator.run()
        assert snk.collected == list(range(50))


class TestMuxDemux:
    def test_mux_routes_by_select(self):
        mgr = Manager("mux")
        a = mgr.add_kernel(SourceKernel("a", [1, 2]))
        b = mgr.add_kernel(SourceKernel("b", [10]))
        sel = mgr.add_kernel(SourceKernel("sel", [0, 1, 0]))
        mux = mgr.add_kernel(MuxKernel("mux", 2))
        snk = mgr.add_kernel(SinkKernel("snk"))
        mgr.connect(a, "out", mux, "in0")
        mgr.connect(b, "out", mux, "in1")
        mgr.connect(sel, "out", mux, "select")
        mgr.connect(mux, "out", snk, "in")
        DFE(mgr, 100).simulator.run()
        assert snk.collected == [1, 10, 2]

    def test_demux_routes_by_select(self):
        mgr = Manager("demux")
        src = mgr.add_kernel(SourceKernel("src", [1, 2, 3, 4]))
        sel = mgr.add_kernel(SourceKernel("sel", [0, 1, 1, 0]))
        dmx = mgr.add_kernel(DemuxKernel("dmx", 2))
        s0 = mgr.add_kernel(SinkKernel("s0"))
        s1 = mgr.add_kernel(SinkKernel("s1"))
        mgr.connect(src, "out", dmx, "in")
        mgr.connect(sel, "out", dmx, "select")
        mgr.connect(dmx, "out0", s0, "in")
        mgr.connect(dmx, "out1", s1, "in")
        DFE(mgr, 100).simulator.run()
        assert s0.collected == [1, 4]
        assert s1.collected == [2, 3]

    def test_mux_select_out_of_range(self):
        mgr = Manager("mux")
        a = mgr.add_kernel(SourceKernel("a", [1]))
        sel = mgr.add_kernel(SourceKernel("sel", [3]))
        mux = mgr.add_kernel(MuxKernel("mux", 1))
        snk = mgr.add_kernel(SinkKernel("snk"))
        mgr.connect(a, "out", mux, "in0")
        mgr.connect(sel, "out", mux, "select")
        mgr.connect(mux, "out", snk, "in")
        with pytest.raises(SimulationError, match="out of range"):
            DFE(mgr, 100).simulator.run()


class TestSimulatorBehaviour:
    def test_quiescence_detected(self):
        src, snk = SourceKernel("src", range(3)), SinkKernel("snk")
        res = DFE(build_linear(src, snk), 100).simulator.run()
        assert res.quiesced

    def test_until_predicate(self):
        src, snk = SourceKernel("src", range(100)), SinkKernel("snk")
        dfe = DFE(build_linear(src, snk), 100)
        dfe.simulator.run(until=lambda: len(snk.collected) >= 10)
        assert len(snk.collected) in (10, 11)

    def test_cycle_budget_enforced(self):
        src, snk = SourceKernel("src", range(1000)), SinkKernel("snk")
        dfe = DFE(build_linear(src, snk), 100)
        with pytest.raises(SimulationError, match="exceeded"):
            dfe.simulator.run(max_cycles=5, until=lambda: False)

    def test_deadlock_detected(self):
        """A consumer waiting on data that never arrives deadlocks cleanly
        instead of spinning."""
        mgr = Manager("dead")
        snk = mgr.add_kernel(SinkKernel("snk"))
        mux = mgr.add_kernel(MuxKernel("mux", 1))
        src = mgr.add_kernel(SourceKernel("src", [1]))
        sel = mgr.add_kernel(SourceKernel("sel", []))  # never selects
        mgr.connect(src, "out", mux, "in0")
        mgr.connect(sel, "out", mux, "select")
        mgr.connect(mux, "out", snk, "in")
        dfe = DFE(mgr, 100)
        with pytest.raises(SimulationError, match="deadlock"):
            dfe.simulator.run(until=lambda: len(snk.collected) == 1)

    def test_activity_stats(self):
        src, snk = SourceKernel("src", range(3)), SinkKernel("snk")
        res = DFE(build_linear(src, snk), 100).simulator.run()
        assert 0 < res.kernel_stats["src"].utilization <= 1.0

    def test_wall_time(self):
        src, snk = SourceKernel("src", range(3)), SinkKernel("snk")
        res = DFE(build_linear(src, snk), clock_mhz=100).simulator.run()
        assert res.wall_time_ns(100) == pytest.approx(res.cycles * 10.0)


class TestManager:
    def test_duplicate_kernel_rejected(self):
        mgr = Manager("m")
        mgr.add_kernel(SinkKernel("k"))
        with pytest.raises(SimulationError, match="duplicate"):
            mgr.add_kernel(SinkKernel("k"))

    def test_unregistered_kernel_rejected(self):
        mgr = Manager("m")
        a = SinkKernel("a")
        b = mgr.add_kernel(SourceKernel("b", []))
        with pytest.raises(SimulationError, match="not part of"):
            mgr.connect(b, "out", a, "in")

    def test_frozen_design_is_immutable(self):
        mgr = Manager("m")
        mgr.add_kernel(SinkKernel("k"))
        mgr.freeze()
        with pytest.raises(SimulationError, match="frozen"):
            mgr.add_kernel(SinkKernel("k2"))

    def test_double_bind_rejected(self):
        mgr = Manager("m")
        a = mgr.add_kernel(SourceKernel("a", []))
        b = mgr.add_kernel(SinkKernel("b"))
        c = mgr.add_kernel(SinkKernel("c"))
        mgr.connect(a, "out", b, "in")
        with pytest.raises(SimulationError, match="already bound"):
            mgr.connect(a, "out", c, "in")

    def test_style_validation(self):
        with pytest.raises(SimulationError):
            Manager("m", style="baroque")

    def test_modular_pays_interconnect(self):
        def build(style):
            mgr = Manager("m", style=style)
            a = mgr.add_kernel(SourceKernel("a", []))
            b = mgr.add_kernel(MapKernel("b", lambda x: x))
            c = mgr.add_kernel(SinkKernel("c"))
            mgr.connect(a, "out", b, "in")
            mgr.connect(b, "out", c, "in")
            return mgr.resources()

        assert build("modular").interconnect_luts > 0
        assert build("fused").interconnect_luts == 0

    def test_host_streams_not_counted_as_interconnect(self):
        mgr = Manager("m", style="modular")
        k = mgr.add_kernel(MapKernel("k", lambda x: x))
        mgr.host_to_kernel("in", k, "in")
        mgr.kernel_to_host("out", k, "out")
        assert mgr.resources().interconnect_luts == 0
