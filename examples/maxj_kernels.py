#!/usr/bin/env python
"""Writing dataflow kernels in the MaxJ-like DSL (paper §II-B).

The paper's platform describes hardware as dataflow graphs in MaxJ.  This
example builds three classic MaxJ kernels in the mini-DSL — a moving-
average filter (stream offsets), SAXPY (typed arithmetic), and a
conditional accumulator (counter + mux) — compiles them, and streams data
through the cycle-accurate simulator.

Run:  python examples/maxj_kernels.py
"""


from repro.maxeler import DFE, Manager, SinkKernel, SourceKernel
from repro.maxj import FLOAT64, INT64, KernelGraph, compile_graph


def run(graph, inputs, fill=0):
    mgr = Manager(graph.name)
    kernel = mgr.add_kernel(compile_graph(graph, fill=fill))
    for name, values in inputs.items():
        src = mgr.add_kernel(SourceKernel(f"src_{name}", values))
        mgr.connect(src, "out", kernel, name)
    sinks = {}
    for name in graph.outputs:
        snk = mgr.add_kernel(SinkKernel(f"snk_{name}"))
        mgr.connect(kernel, name, snk, "in")
        sinks[name] = snk
    result = DFE(mgr, clock_mhz=150).simulator.run()
    return {n: s.collected for n, s in sinks.items()}, result


def main() -> None:
    # --- 1. moving average: the canonical MaxJ stream-offset example ------
    g = KernelGraph("avg3")
    x = g.input("x", FLOAT64)
    g.output("y", (x.offset(-2) + x.offset(-1) + x) / 3.0)
    data = [float(v) for v in (3, 6, 9, 12, 15, 18)]
    out, res = run(g, {"x": data}, fill=0.0)
    print(f"avg3   (depth {g.pipeline_depth()}, {res.cycles} cycles): "
          f"{out['y']}")

    # --- 2. SAXPY: z = a*x + y --------------------------------------------
    g = KernelGraph("saxpy")
    x = g.input("x", FLOAT64)
    y = g.input("y", FLOAT64)
    a = g.constant(2.5, FLOAT64)
    g.output("z", a * x + y)
    out, res = run(g, {"x": [1.0, 2.0, 3.0], "y": [10.0, 10.0, 10.0]})
    print(f"saxpy  (depth {g.pipeline_depth()}, {res.cycles} cycles): "
          f"{out['z']}")

    # --- 3. conditional accumulation: count threshold crossings -----------
    g = KernelGraph("edges")
    x = g.input("x", INT64)
    rising = (x > 50) & (x.offset(-1) <= 50)
    g.output("edge", g.mux(rising, g.constant(1, INT64), 0))
    signal = [10, 60, 70, 20, 55, 54, 10, 90]
    out, res = run(g, {"x": signal}, fill=0)
    print(f"edges  (depth {g.pipeline_depth()}, {res.cycles} cycles): "
          f"{out['edge']}  -> {sum(out['edge'])} rising edges")

    # throughput check: one element per cycle after the pipeline fills
    g = KernelGraph("tp")
    x = g.input("x", FLOAT64)
    g.output("y", x * 1.000001 * 0.999999)
    n = 10_000
    _, res = run(g, {"x": [1.0] * n})
    print(f"throughput: {n} elements in {res.cycles} cycles "
          f"({n / res.cycles:.3f} elem/cycle)")


if __name__ == "__main__":
    main()
