"""Scalar vs batched tick-engine throughput on the Fig. 9 STREAM design.

Runs the full Load / Copy / Offload sequence cycle-accurately on the
scalar reference path (chunk planning off) and on the batched engine
across STREAM sizes (up to 128 KB per array), checking that the batched
engine is bit-identical in cycles while >= 4x faster in wall clock at the
paper's 64 KB point.  Emits the unified
``repro.exec.report`` JSON next to the text artifact; the small-size
smoke variant backs the CI perf gate.
"""

import io
import time

from _util import gate, save_report

from repro.exec import Report, ReportEntry
from repro.maxeler.simulator import scalar_reference
from repro.stream_bench import StreamHarness, build_stream_design
from repro.stream_bench.apps import COPY

#: lane-vectors per run; 1024 vectors x 8 lanes x 8 B = 64 KB per array
SIZES = (128, 512, 1024, 2048)


def _one_pass(vectors: int):
    design = build_stream_design()
    harness = StreamHarness(design)
    t0 = time.perf_counter()
    harness.load_arrays(vectors)
    cycles = harness.run_app(COPY, vectors)
    harness.offload_array(COPY.destination, vectors)
    wall = time.perf_counter() - t0
    return cycles, design.dfe.simulator.cycles, wall


def _measure(vectors: int) -> dict:
    with scalar_reference():
        s_cycles, s_total, s_wall = _one_pass(vectors)
    b_cycles, b_total, b_wall = _one_pass(vectors)
    assert b_cycles == s_cycles, "engines disagree on compute cycles"
    assert b_total == s_total, "engines disagree on total cycles"
    elements = vectors * 8
    return {
        "vectors": vectors,
        "kb": vectors * 8 * 8 / 1024,
        "cycles": s_cycles,
        "scalar_wall_s": s_wall,
        "batched_wall_s": b_wall,
        "scalar_eps": elements / s_wall,
        "batched_eps": elements / b_wall,
        "speedup": s_wall / b_wall,
    }


def _row(m: dict) -> str:
    return (
        f"{m['kb']:8.0f} {m['cycles']:8d} {m['scalar_wall_s']:10.3f} "
        f"{m['batched_wall_s']:11.3f} {m['scalar_eps']:11.0f} "
        f"{m['batched_eps']:12.0f} {m['speedup']:8.1f}x\n"
    )


_HEADER = (
    "batched vs scalar tick engine — STREAM Copy, full Fig. 9 design\n"
    "(Load + compute + Offload, cycle counts bit-identical by assertion)\n\n"
    f"{'KB':>8s} {'cycles':>8s} {'scalar s':>10s} {'batched s':>11s} "
    f"{'scalar el/s':>11s} {'batched el/s':>12s} {'speedup':>9s}\n"
)


def _entry(m: dict) -> ReportEntry:
    return ReportEntry(
        experiment="sim throughput",
        quantity=f"Copy @ {m['kb']:.0f} KB speedup [x]",
        measured=round(m["speedup"], 2),
        metrics={
            "vectors": m["vectors"],
            "cycles": m["cycles"],
            "scalar_wall_s": round(m["scalar_wall_s"], 4),
            "batched_wall_s": round(m["batched_wall_s"], 4),
            "scalar_elements_per_s": round(m["scalar_eps"]),
            "batched_elements_per_s": round(m["batched_eps"]),
        },
    )


def test_sim_throughput_report(benchmark):
    out = io.StringIO()
    out.write(_HEADER)
    report = Report(title="Batched tick engine: scalar vs batched (Copy)")
    by_size = {}
    for vectors in SIZES:
        m = _measure(vectors)
        by_size[vectors] = m
        out.write(_row(m))
        report.entries.append(_entry(m))
    save_report("sim_throughput", out.getvalue(), report)

    # the headline acceptance: >= 4x at the paper's 64 KB STREAM size.
    # (The gate was >= 10x against the original scalar engine; the
    # access-plan compiler then made scalar `step()` itself ~4x faster,
    # so the same batched wall time now divides a much faster baseline.)
    assert by_size[1024]["speedup"] >= 4
    assert by_size[2048]["speedup"] >= 4

    benchmark(lambda: _one_pass(512))


def test_sim_throughput_smoke(benchmark):
    """The CI perf gate: one small size, batched must be >= 2x scalar
    (threshold from the declarative GATE_TABLE, verdict ledgered)."""
    m = _measure(256)
    g = gate("sim.batched_vs_scalar", m["speedup"])
    report = Report(title="Batched tick engine perf smoke (Copy @ 16 KB)")
    report.entries.append(_entry(m))
    save_report(
        "sim_throughput_smoke",
        _HEADER + _row(m),
        report,
        gates=[g],
        params={"workload": "stream.copy", "scheme": "batched", "vectors": 256},
        timings={
            "scalar_wall_s": m["scalar_wall_s"],
            "batched_wall_s": m["batched_wall_s"],
        },
    )
    assert g["ok"], g
    benchmark(lambda: _one_pass(256))
