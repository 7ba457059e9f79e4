"""Tests for compiled MaxJ-like kernels running on the tick simulator."""

import numpy as np

from repro.maxeler import DFE, Manager, SinkKernel, SourceKernel
from repro.maxj import FLOAT64, INT64, UINT64, KernelGraph, compile_graph


def run_graph(graph, inputs, fill=0, clock=100):
    mgr = Manager("t")
    k = mgr.add_kernel(compile_graph(graph, fill=fill))
    for name, vals in inputs.items():
        src = mgr.add_kernel(SourceKernel(f"src_{name}", vals))
        mgr.connect(src, "out", k, name)
    sinks = {}
    for name in graph.outputs:
        snk = mgr.add_kernel(SinkKernel(f"snk_{name}"))
        mgr.connect(k, name, snk, "in")
        sinks[name] = snk
    result = DFE(mgr, clock).simulator.run()
    return {name: s.collected for name, s in sinks.items()}, result


class TestArithmetic:
    def test_elementwise_expression(self):
        g = KernelGraph("expr")
        x = g.input("x", INT64)
        y = g.input("y", INT64)
        g.output("out", (x + y) * 2 - 1)
        out, _ = run_graph(g, {"x": [1, 2, 3], "y": [10, 20, 30]})
        assert out["out"] == [21, 43, 65]

    def test_float_arithmetic(self):
        g = KernelGraph("f")
        x = g.input("x", FLOAT64)
        g.output("out", x / 4.0 + 0.5)
        out, _ = run_graph(g, {"x": [2.0, 6.0]})
        assert out["out"] == [1.0, 2.0]

    def test_uint_wraparound(self):
        """Hardware wrap semantics: uint64 overflow wraps silently."""
        g = KernelGraph("wrap")
        x = g.input("x", UINT64)
        g.output("out", x + np.uint64(1))
        out, _ = run_graph(g, {"x": [np.uint64(2**64 - 1)]})
        assert out["out"] == [0]

    def test_neg_abs(self):
        g = KernelGraph("na")
        x = g.input("x", INT64)
        g.output("neg", -x)
        g.output("abs", x.abs())
        out, _ = run_graph(g, {"x": [-3, 4]})
        assert out["neg"] == [3, -4]
        assert out["abs"] == [3, 4]

    def test_shifts_and_bits(self):
        g = KernelGraph("bits")
        x = g.input("x", UINT64)
        g.output("out", ((x << np.uint64(2)) | np.uint64(1)) & np.uint64(0xFF))
        out, _ = run_graph(g, {"x": [1, 3]})
        assert out["out"] == [5, 13]

    def test_multiple_outputs_share_subgraph(self):
        g = KernelGraph("shared")
        x = g.input("x", INT64)
        t = x * 3
        g.output("a", t + 1)
        g.output("b", t - 1)
        out, _ = run_graph(g, {"x": [2]})
        assert out["a"] == [7] and out["b"] == [5]


class TestControl:
    def test_mux(self):
        g = KernelGraph("mux")
        x = g.input("x", INT64)
        g.output("out", g.mux(x > 0, x, -x))  # |x|
        out, _ = run_graph(g, {"x": [-5, 3, -1]})
        assert out["out"] == [5, 3, 1]

    def test_counter(self):
        g = KernelGraph("ctr")
        x = g.input("x", UINT64)
        c = g.counter(UINT64)
        g.output("out", x + c)
        out, _ = run_graph(g, {"x": [10, 10, 10, 10]})
        assert out["out"] == [10, 11, 12, 13]

    def test_wrapping_counter(self):
        g = KernelGraph("ctrw")
        x = g.input("x", UINT64)
        g.output("out", g.counter(UINT64, wrap=3) + x * np.uint64(0))
        out, _ = run_graph(g, {"x": [0] * 7})
        assert out["out"] == [0, 1, 2, 0, 1, 2, 0]


class TestOffsets:
    def test_past_offset_with_fill(self):
        g = KernelGraph("off")
        x = g.input("x", INT64)
        g.output("out", x.offset(-1))
        out, _ = run_graph(g, {"x": [1, 2, 3]}, fill=-9)
        assert out["out"] == [-9, 1, 2]

    def test_moving_sum(self):
        g = KernelGraph("msum")
        x = g.input("x", INT64)
        g.output("out", x.offset(-2) + x.offset(-1) + x)
        out, _ = run_graph(g, {"x": [1, 2, 3, 4, 5]}, fill=0)
        assert out["out"] == [1, 3, 6, 9, 12]

    def test_deep_offset(self):
        g = KernelGraph("deep")
        x = g.input("x", INT64)
        g.output("out", x.offset(-4))
        out, _ = run_graph(g, {"x": list(range(6))}, fill=0)
        assert out["out"] == [0, 0, 0, 0, 0, 1]


class TestTiming:
    def test_results_delayed_by_pipeline_depth(self):
        g = KernelGraph("deep")
        x = g.input("x", FLOAT64)
        g.output("out", x * 2.0 * 3.0 * 4.0)  # depth 6
        mgr = Manager("t")
        k = mgr.add_kernel(compile_graph(g))
        src = mgr.add_kernel(SourceKernel("src", [1.0]))
        snk = mgr.add_kernel(SinkKernel("snk"))
        mgr.connect(src, "out", k, "x")
        mgr.connect(k, "out", snk, "in")
        dfe = DFE(mgr, 100)
        dfe.simulator.run(until=lambda: len(snk.collected) == 1, max_cycles=100)
        assert dfe.simulator.cycles >= g.pipeline_depth()

    def test_streams_at_one_per_cycle(self):
        """After the pipeline fills, throughput is 1 element/cycle."""
        g = KernelGraph("tp")
        x = g.input("x", FLOAT64)
        g.output("out", x * 2.0 * 3.0)
        n = 50
        out, result = run_graph(g, {"x": [float(v) for v in range(n)]})
        assert len(out["out"]) == n
        assert result.cycles <= n + g.pipeline_depth() + 5

    def test_zero_depth_passthrough(self):
        g = KernelGraph("wire")
        x = g.input("x", UINT64)
        g.output("out", x)
        out, _ = run_graph(g, {"x": [7, 8]})
        assert out["out"] == [7, 8]
        assert g.pipeline_depth() == 0
