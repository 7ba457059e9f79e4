#!/usr/bin/env python
"""A complete DFE image pipeline: PolyMem + a MaxJ-style Sobel kernel.

This flagship example composes the library end to end the way the paper's
§VII integration vision describes: an image lives in PolyMem (rectangle
reads at arbitrary anchors supply the 3x3 windows), the gradient
arithmetic is a dataflow kernel written in the MaxJ-like DSL, and the
whole thing runs on the cycle-accurate simulator.

Pipeline per pixel: PolyMem supplies the Sobel window rows as streams;
the DSL kernel computes |Gx| + |Gy| and thresholds it.

Run:  python examples/edge_detect_dfe.py
"""

import numpy as np

from repro.core.config import PolyMemConfig
from repro.core.patterns import PatternKind
from repro.core.polymem import PolyMem
from repro.core.schemes import Scheme
from repro.maxeler import DFE, Manager, SinkKernel, SourceKernel
from repro.maxj import INT64, KernelGraph, compile_graph


def sobel_graph() -> KernelGraph:
    """|Gx| + |Gy| over a 3x3 window streamed column by column.

    The window's three rows arrive as three streams (top, mid, bottom);
    stream offsets give the kernel the previous two columns, so each tick
    sees the full 3x3 neighbourhood — the classic MaxJ stencil idiom.
    """
    g = KernelGraph("sobel")
    top = g.input("top", INT64)
    mid = g.input("mid", INT64)
    bot = g.input("bot", INT64)
    t2, t1, t0 = top.offset(-2), top.offset(-1), top
    m2, m0 = mid.offset(-2), mid
    b2, b1, b0 = bot.offset(-2), bot.offset(-1), bot
    gx = (t0 + m0 * 2 + b0) - (t2 + m2 * 2 + b2)
    gy = (b2 + b1 * 2 + b0) - (t2 + t1 * 2 + t0)
    mag = gx.abs() + gy.abs()
    g.output("mag", mag)
    g.output("edge", g.mux(mag > 200, g.constant(1, INT64), 0))
    return g


def sobel_reference(image: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """NumPy reference for the interior pixels."""
    img = image.astype(np.int64)
    gx = (
        img[:-2, 2:] + 2 * img[1:-1, 2:] + img[2:, 2:]
        - img[:-2, :-2] - 2 * img[1:-1, :-2] - img[2:, :-2]
    )
    gy = (
        img[2:, :-2] + 2 * img[2:, 1:-1] + img[2:, 2:]
        - img[:-2, :-2] - 2 * img[:-2, 1:-1] - img[:-2, 2:]
    )
    mag = np.abs(gx) + np.abs(gy)
    return mag, (mag > 200).astype(np.int64)


def main() -> None:
    rng = np.random.default_rng(3)
    rows, cols = 16, 32
    image = rng.integers(0, 256, (rows, cols))

    # stage the image into PolyMem; ReRo rows feed the window streams
    pm = PolyMem(
        PolyMemConfig(rows * cols * 8, p=2, q=4, scheme=Scheme.ReRo,
                      rows=rows, cols=cols)
    )
    pm.load(image.astype(np.uint64))

    # fetch each row as parallel strips (PolyMem traffic, cycle-counted)
    def fetch_row(i):
        strips = pm.read_batch(
            PatternKind.ROW,
            np.full(cols // 8, i),
            np.arange(cols // 8) * 8,
        )
        return strips.ravel().astype(np.int64)

    mags = np.zeros((rows - 2, cols - 2), dtype=np.int64)
    edges = np.zeros_like(mags)
    total_cycles = 0
    for out_row in range(rows - 2):
        top, mid, bot = (fetch_row(out_row + d) for d in range(3))
        mgr = Manager("sobel")
        kernel = mgr.add_kernel(compile_graph(sobel_graph()))
        for name, data in (("top", top), ("mid", mid), ("bot", bot)):
            src = mgr.add_kernel(SourceKernel(f"src_{name}", list(data)))
            mgr.connect(src, "out", kernel, name)
        s_mag = mgr.add_kernel(SinkKernel("mag"))
        s_edge = mgr.add_kernel(SinkKernel("edge"))
        mgr.connect(kernel, "mag", s_mag, "in")
        mgr.connect(kernel, "edge", s_edge, "in")
        result = DFE(mgr, clock_mhz=150).simulator.run()
        total_cycles += result.cycles
        # the first two outputs are warm-up (offsets not yet filled)
        mags[out_row] = np.array(s_mag.collected[2:], dtype=np.int64)
        edges[out_row] = np.array(s_edge.collected[2:], dtype=np.int64)

    ref_mag, ref_edge = sobel_reference(image)
    assert (mags == ref_mag).all()
    assert (edges == ref_edge).all()
    print(f"Sobel over a {rows}x{cols} image: "
          f"{pm.cycles} PolyMem access cycles, "
          f"{total_cycles} dataflow kernel cycles")
    print(f"edge pixels found: {int(edges.sum())} "
          f"(reference agrees: {int(ref_edge.sum())})")
    print("PolyMem window fetches + MaxJ-DSL arithmetic = "
          "the paper's §VII integration vision, end to end.")


if __name__ == "__main__":
    main()
