"""Tests for the modular Fig. 3 pipeline and fused/modular equivalence."""

import numpy as np
import pytest

from repro.core.config import KB, PolyMemConfig
from repro.core.patterns import PatternKind
from repro.core.plan import AccessBlock
from repro.core.schemes import Scheme
from repro.maxpolymem import build_design, validate_design
from repro.maxpolymem.modular import build_modular_design


@pytest.fixture
def cfg():
    return PolyMemConfig(4 * KB, p=2, q=4, scheme=Scheme.ReRo, read_ports=2)


class TestModularPipeline:
    def test_kernel_inventory_matches_fig3(self, cfg):
        """Write path: adapter+AGU+M+A+shuffle; per read port:
        adapter+AGU+M+A+addr shuffle+data shuffle; plus the banks."""
        design = build_modular_design(cfg)
        names = set(design.manager.kernels)
        assert "banks" in names
        for k in ("wr_adapter", "wr_agu", "wr_m", "wr_a", "wr_shuffle"):
            assert k in names
        for port in range(2):
            for k in (
                f"rd_adapter{port}",
                f"rd_agu{port}",
                f"rd_m{port}",
                f"rd_a{port}",
                f"rd_addr_shuffle{port}",
                f"rd_data_shuffle{port}",
            ):
                assert k in names
        assert len(names) == 5 + 2 * 6 + 1

    def test_validation_cycle_passes(self, cfg):
        design = build_design(cfg, style="modular", clock_source="model")
        report = validate_design(design)
        assert report.passed, report.mismatches

    def test_interconnect_overhead_positive(self, cfg):
        design = build_modular_design(cfg)
        assert design.manager.resources().interconnect_luts > 0


class TestFusedModularEquivalence:
    @pytest.mark.parametrize("scheme", [Scheme.ReRo, Scheme.RoCo, Scheme.ReTr])
    def test_same_answers(self, scheme):
        """Both styles produce identical read results for an identical
        command sequence — the §III-C claim that modularity only costs
        resources, not correctness."""
        cfg = PolyMemConfig(4 * KB, p=2, q=4, scheme=scheme)
        rng = np.random.default_rng(7)
        bi, bj = np.divmod(np.arange(8), 2)
        writes = AccessBlock(
            PatternKind.RECTANGLE, 2 * bi, 4 * bj,
            values=[rng.integers(0, 1000, 8) for _ in range(8)],
        )
        if scheme is Scheme.ReTr:
            first = (PatternKind.TRANSPOSED_RECTANGLE, 1, 1)
        elif scheme is Scheme.RoCo:
            first = (PatternKind.COLUMN, 0, 3)
        else:
            first = (PatternKind.ROW, 2, 1)
        kinds, ai, aj = zip(first, (PatternKind.RECTANGLE, 0, 0))
        reads = AccessBlock(kinds, ai, aj)

        results = {}
        for style in ("fused", "modular"):
            design = build_design(cfg, style=style, clock_source="model")
            host = design.host()
            host.write_stream("wr_cmd", writes)
            host.run_kernel(max_cycles=2000)
            host.write_stream("rd_cmd0", reads)
            out = design.dfe.manager.host_output("rd_out0")
            host.run_kernel(
                until=lambda s=out: len(s) == len(reads), max_cycles=2000
            )
            results[style] = [np.asarray(v) for v in host.read_stream("rd_out0")]
        for a, b in zip(results["fused"], results["modular"]):
            assert (a == b).all()

    def test_modular_streams_at_full_rate(self, cfg):
        """Back-to-back reads still complete ~1 per cycle after the pipeline
        fills (stream interconnect must not throttle throughput)."""
        design = build_design(cfg, style="modular", clock_source="model")
        host = design.host()
        n = 64
        host.write_stream(
            "rd_cmd0", AccessBlock(PatternKind.ROW, np.arange(n) % 16, np.zeros(n, int))
        )
        out = design.dfe.manager.host_output("rd_out0")
        start = design.dfe.simulator.cycles
        host.run_kernel(until=lambda: len(out) == n, max_cycles=5000)
        elapsed = design.dfe.simulator.cycles - start
        assert elapsed <= n + 4 * design.read_latency + 10
