"""Tests for PCIe and host wall-clock accounting."""

import pytest

from repro.core.exceptions import SimulationError
from repro.maxeler import DFE, Host, Manager, MapKernel, PcieLink, VECTIS_PCIE


@pytest.fixture
def passthrough():
    mgr = Manager("pass")
    k = mgr.add_kernel(MapKernel("inc", lambda x: x + 1))
    mgr.host_to_kernel("in", k, "in")
    mgr.kernel_to_host("out", k, "out")
    dfe = DFE(mgr, clock_mhz=100)
    return Host(dfe), dfe


class TestPcieLink:
    def test_overhead_dominates_small_transfers(self):
        link = PcieLink(call_overhead_ns=300, bandwidth_gbps=2)
        assert link.transfer_ns(0) == 300
        assert link.signal_ns() == 300

    def test_payload_time(self):
        link = PcieLink(call_overhead_ns=300, bandwidth_gbps=2)
        # 2 GB/s == 2 bytes/ns
        assert link.transfer_ns(2000) == pytest.approx(300 + 1000)

    def test_negative_payload(self):
        with pytest.raises(ValueError):
            VECTIS_PCIE.transfer_ns(-1)

    def test_vectis_matches_paper_overhead(self):
        assert VECTIS_PCIE.call_overhead_ns == 300.0


class TestHost:
    def test_write_stream_charges_pcie(self, passthrough):
        host, _ = passthrough
        host.begin_stage("load")
        n = host.write_stream("in", range(10))
        assert n == 10
        stage = host.stage("load")
        assert stage.calls == 1
        assert stage.payload_bytes == 80
        assert stage.pcie_ns == pytest.approx(300 + 80 / 2)

    def test_command_block_payload(self):
        """A command block carries one 64-bit word per command (the
        anchor and access type) plus its lane data."""
        import numpy as np

        from repro.core.config import KB, PolyMemConfig
        from repro.core.plan import AccessBlock
        from repro.maxpolymem import build_design

        cfg = PolyMemConfig(4 * KB, p=2, q=4)
        host = build_design(cfg, clock_source="model").host()
        host.begin_stage("fill")
        values = np.zeros((5, 8), dtype=np.uint64)
        writes = AccessBlock("rectangle", np.arange(5) * 2, np.zeros(5, int), values=values)
        assert host.write_stream("wr_cmd", writes) == 5
        assert host.stage("fill").payload_bytes == 5 * 8 + 5 * 8 * 8
        host.begin_stage("read")
        host.write_stream("rd_cmd0", AccessBlock("row", [0, 1, 2], [0, 0, 0]))
        assert host.stage("read").payload_bytes == 3 * 8

    def test_run_kernel_charges_cycles(self, passthrough):
        host, dfe = passthrough
        host.write_stream("in", range(10))
        host.begin_stage("run")
        out = dfe.manager.host_output("out")
        host.run_kernel(until=lambda: len(out) == 10)
        stage = host.stage("run")
        assert stage.compute_ns > 0
        # 100 MHz -> 10 ns per cycle
        assert stage.compute_ns == pytest.approx(dfe.simulator.cycles * 10.0)

    def test_read_stream_returns_results(self, passthrough):
        host, dfe = passthrough
        host.write_stream("in", range(5))
        out = dfe.manager.host_output("out")
        host.run_kernel(until=lambda: len(out) == 5)
        assert host.read_stream("out").tolist() == [1, 2, 3, 4, 5]

    def test_stage_separation(self, passthrough):
        host, dfe = passthrough
        host.begin_stage("a")
        host.signal()
        host.begin_stage("b")
        host.signal()
        host.signal()
        assert host.stage("a").calls == 1
        assert host.stage("b").calls == 2
        assert host.clock_ns == pytest.approx(3 * 300)

    def test_unknown_stage(self, passthrough):
        host, _ = passthrough
        with pytest.raises(SimulationError):
            host.stage("nope")

    def test_clock_positive(self):
        mgr = Manager("m")
        with pytest.raises(SimulationError):
            DFE(mgr, clock_mhz=0)
