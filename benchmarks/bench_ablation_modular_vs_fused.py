"""Ablation (§III-C) — modular multi-kernel vs fused single-kernel design.

The paper found the modular design "consumes twice as many resources,
mainly due to the additional inter-kernel communication infrastructure".
This bench builds both styles, compares their resource estimates, verifies
they are behaviourally identical, and times each style's simulation.
"""

import io

import numpy as np
from _util import save_report

from repro.core.config import KB, PolyMemConfig
from repro.core.patterns import PatternKind
from repro.core.plan import AccessBlock
from repro.core.schemes import Scheme
from repro.maxpolymem import build_design


def make_cfg(read_ports=1):
    return PolyMemConfig(4 * KB, p=2, q=4, scheme=Scheme.ReRo, read_ports=read_ports)


def run_reads(design, n=32):
    host = design.host()
    i, j = np.divmod(np.arange(8), 2)
    i, j = 2 * i, 4 * j
    host.write_stream(
        "wr_cmd",
        AccessBlock(
            PatternKind.RECTANGLE, i, j,
            values=np.arange(8) + (i * 100 + j)[:, None],
        ),
    )
    host.run_kernel(max_cycles=10_000)
    host.write_stream(
        "rd_cmd0", AccessBlock(PatternKind.ROW, np.arange(n) % 8, np.zeros(n, int))
    )
    out = design.dfe.manager.host_output("rd_out0")
    host.run_kernel(until=lambda: len(out) == n, max_cycles=100_000)
    return [np.asarray(v) for v in host.read_stream("rd_out0")]


def test_ablation_modular_vs_fused(benchmark):
    out = io.StringIO()
    out.write("ABLATION — modular vs fused MAX-PolyMem (§III-C)\n")
    out.write(
        f"{'style':8s} {'kernels':>8s} {'streams':>8s} "
        f"{'interconnect LUTs':>18s} {'total LUTs':>11s} {'latency':>8s}\n"
    )
    rows = {}
    for style in ("fused", "modular"):
        design = build_design(make_cfg(), style=style, clock_source="model")
        res = design.dfe.manager.resources()
        rows[style] = (design, res)
        out.write(
            f"{style:8s} {res.num_kernels:8d} {res.num_streams:8d} "
            f"{res.interconnect_luts:18d} {design.resource_luts():11d} "
            f"{design.read_latency:8d}\n"
        )
    fused_design, fused_res = rows["fused"]
    mod_design, mod_res = rows["modular"]
    ratio = mod_design.resource_luts() / fused_design.resource_luts()
    out.write(f"\nmodular / fused resource ratio: {ratio:.2f}x "
              f"(paper: ~2x)\n")
    save_report("ablation_modular_vs_fused", out.getvalue())

    # the paper's 2x observation, within tolerance
    assert 1.5 < ratio < 3.0
    assert mod_res.interconnect_luts > 0
    assert fused_res.interconnect_luts == 0

    # behavioural equivalence
    a = run_reads(build_design(make_cfg(), style="fused", clock_source="model"))
    b = run_reads(build_design(make_cfg(), style="modular", clock_source="model"))
    for x, y in zip(a, b):
        assert (x == y).all()

    # time the (slower) modular simulation
    benchmark(
        lambda: run_reads(
            build_design(make_cfg(), style="modular", clock_source="model"), n=16
        )
    )


def test_ablation_fused_simulation_speed(benchmark):
    benchmark(
        lambda: run_reads(
            build_design(make_cfg(), style="fused", clock_source="model"), n=16
        )
    )
