"""Gap-fill tests: DFE board model, clocking, and design resources."""

import pytest

from repro.core.exceptions import SimulationError
from repro.maxeler import (
    DFE,
    Host,
    Manager,
    MapKernel,
    PcieLink,
    SinkKernel,
    SourceKernel,
    VECTIS_PCIE,
    VectisBoard,
)
from repro.maxeler.manager import DesignResources, INTERKERNEL_STREAM_LUTS


class TestVectisBoard:
    def test_defaults(self):
        b = VectisBoard()
        assert b.name == "Vectis"
        assert b.fpga_name == "xc6vsx475t"
        assert b.pcie.call_overhead_ns == VECTIS_PCIE.call_overhead_ns


class TestDFE:
    def make(self, clock=100):
        mgr = Manager("m")
        src = mgr.add_kernel(SourceKernel("s", range(3)))
        snk = mgr.add_kernel(SinkKernel("k"))
        mgr.connect(src, "out", snk, "in")
        return DFE(mgr, clock_mhz=clock)

    def test_cycle_time(self):
        dfe = self.make(clock=200)
        assert dfe.cycle_ns == pytest.approx(5.0)
        assert dfe.cycles_to_ns(100) == pytest.approx(500.0)

    def test_freezes_design(self):
        dfe = self.make()
        with pytest.raises(SimulationError, match="frozen"):
            dfe.manager.add_kernel(SinkKernel("late"))

    def test_custom_board(self):
        """A Host on a non-default board charges that board's link."""
        mgr = Manager("m")
        k = mgr.add_kernel(MapKernel("inc", lambda x: x + 1))
        mgr.host_to_kernel("in", k, "in")
        mgr.kernel_to_host("out", k, "out")
        link = PcieLink(call_overhead_ns=1000.0, bandwidth_gbps=4.0)
        assert link != VECTIS_PCIE
        dfe = DFE(mgr, 100, board=VectisBoard(pcie=link))
        host = Host(dfe)
        host.begin_stage("load")
        host.write_stream("in", range(10))
        stage = host.stage("load")
        assert stage.calls == 1 and stage.payload_bytes == 80
        assert stage.pcie_ns == pytest.approx(1000.0 + 80 / 4.0)
        assert host.clock_ns == pytest.approx(1000.0 + 80 / 4.0)


class TestDesignResources:
    def test_kernel_luts_summed(self):
        mgr = Manager("m", style="modular")
        a = mgr.add_kernel(SourceKernel("a", []))
        b = mgr.add_kernel(SinkKernel("b"))
        mgr.connect(a, "out", b, "in")
        res = mgr.resources(kernel_luts={"a": 100, "b": 50})
        assert res.kernel_luts == 150
        assert res.interconnect_luts == INTERKERNEL_STREAM_LUTS
        assert res.total_luts == 150 + INTERKERNEL_STREAM_LUTS
        assert res.num_kernels == 2 and res.num_streams == 1

    def test_dataclass_fields(self):
        r = DesignResources(
            kernel_luts=10, interconnect_luts=5, num_kernels=1, num_streams=0
        )
        assert r.total_luts == 15
