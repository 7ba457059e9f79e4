"""Tests for the MaxJ accumulator node (stateful reductions)."""


from repro.maxeler import DFE, Manager, SinkKernel, SourceKernel
from repro.maxj import FLOAT64, INT64, UINT32, KernelGraph, compile_graph


def run(graph, inputs, fill=0):
    mgr = Manager("t")
    k = mgr.add_kernel(compile_graph(graph, fill=fill))
    for name, vals in inputs.items():
        src = mgr.add_kernel(SourceKernel(f"s_{name}", vals))
        mgr.connect(src, "out", k, name)
    sinks = {}
    for name in graph.outputs:
        snk = mgr.add_kernel(SinkKernel(f"k_{name}"))
        mgr.connect(k, name, snk, "in")
        sinks[name] = snk
    DFE(mgr, 100).simulator.run()
    return {n: s.collected for n, s in sinks.items()}


class TestAccumulator:
    def test_running_sum(self):
        g = KernelGraph("acc")
        x = g.input("x", INT64)
        g.output("total", g.accumulator(x))
        out = run(g, {"x": [1, 2, 3, 4]})
        assert out["total"] == [1, 3, 6, 10]

    def test_init_value(self):
        g = KernelGraph("acc")
        x = g.input("x", INT64)
        g.output("total", g.accumulator(x, init=100))
        assert run(g, {"x": [1, 1]})["total"] == [101, 102]

    def test_reset_restarts_at_value(self):
        g = KernelGraph("acc")
        x = g.input("x", INT64)
        c = g.counter(INT64, wrap=3)
        g.output("total", g.accumulator(x, reset=c.eq(0)))
        out = run(g, {"x": [1] * 7})
        assert out["total"] == [1, 2, 3, 1, 2, 3, 1]

    def test_float_accumulation(self):
        g = KernelGraph("acc")
        x = g.input("x", FLOAT64)
        g.output("total", g.accumulator(x))
        out = run(g, {"x": [0.5, 0.25, 0.125]})
        assert out["total"] == [0.5, 0.75, 0.875]

    def test_wraps_like_hardware(self):
        g = KernelGraph("acc")
        x = g.input("x", UINT32)
        g.output("total", g.accumulator(x, init=2**32 - 2))
        out = run(g, {"x": [1, 1, 1]})
        assert out["total"] == [2**32 - 1, 0, 1]

    def test_windowed_sum_via_offsets_vs_accumulator(self):
        """A reset accumulator over blocks equals the blockwise sum."""
        g = KernelGraph("blk")
        x = g.input("x", INT64)
        c = g.counter(INT64, wrap=4)
        total = g.accumulator(x, reset=c.eq(0))
        g.output("blocksum", total)
        data = list(range(8))
        out = run(g, {"x": data})
        # last element of each 4-block is the block sum
        assert out["blocksum"][3] == sum(data[:4])
        assert out["blocksum"][7] == sum(data[4:])

    def test_adds_latency(self):
        g = KernelGraph("acc")
        x = g.input("x", INT64)
        g.output("total", g.accumulator(x))
        assert g.pipeline_depth() == 1
