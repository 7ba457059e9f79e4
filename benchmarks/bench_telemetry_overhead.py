"""Telemetry overhead: the disabled path must be effectively free.

Every instrumentation site guards itself with one module-attribute call
(``repro.telemetry.context.active()``) that returns ``None`` when no
session is active — that call *is* the entire disabled-telemetry cost.
Pre-PR throughput cannot be re-measured post-PR, so the gate audits the
guards directly:

1. time the workload with telemetry off (``t_dis``);
2. swap ``context.active`` for a counting stub and re-run the workload
   to enumerate exactly how many guard evaluations it performs (``n``);
3. time ``n`` calls of the real ``active()`` in a tight loop
   (``t_guard`` — an overestimate: it pays Python loop overhead too);
4. gate ``t_guard <= 0.05 * t_dis``.  Since the pre-PR workload is the
   disabled workload minus its guards, this proves the disabled path
   keeps >= 0.95x pre-PR throughput.

The enabled paths (metrics only, metrics + tracing) are measured and
reported but not gated — they are opt-in diagnostics.  Results must stay
bit-identical across all three modes (asserted on offloaded data and
cycle counts; property-tested in ``tests/telemetry/test_bit_identical.py``).

Run directly with ``--smoke`` for the CI gate only.
"""

import io
import sys
import time

import numpy as np

from _util import exit_on_failed_gates, gate, save_report

from repro.exec import Report, ReportEntry
from repro.stream_bench import StreamHarness, all_apps
from repro.stream_bench.apps import DEFAULT_SCALAR
from repro.stream_bench.controller import build_stream_design
from repro.telemetry import Telemetry, session
from repro.telemetry import context as _context


def _workload(vectors):
    """One cycle-accurate STREAM triad pass; returns (cycles, data)."""
    design = build_stream_design()
    harness = StreamHarness(design)
    app = next(a for a in all_apps() if a.name.lower() == "triad")
    arrays = harness.load_arrays(vectors)
    harness.run_app(app, vectors)
    got = harness.offload_array(app.destination, vectors)
    want = app.expected(arrays["a"], arrays["b"], arrays["c"], DEFAULT_SCALAR)
    assert np.allclose(got, want, rtol=1e-12)
    return design.dfe.simulator.cycles, got


def _time_workload(vectors, reps):
    """Best-of-*reps* wall time plus the last run's (cycles, data)."""
    best = np.inf
    state = None
    for _ in range(reps):
        t0 = time.perf_counter()
        state = _workload(vectors)
        best = min(best, time.perf_counter() - t0)
    return best, state


def _count_guards(vectors):
    """Run the workload with ``context.active`` swapped for a counting
    stub, enumerating every disabled-path guard evaluation."""
    counter = {"n": 0}
    real = _context.active

    def counting_stub():
        counter["n"] += 1
        return None

    _context.active = counting_stub
    try:
        _workload(vectors)
    finally:
        _context.active = real
    return counter["n"]


def _time_guards(n):
    """Time *n* evaluations of the real disabled-path guard (includes
    Python loop overhead, overestimating the true cost)."""
    active = _context.active
    t0 = time.perf_counter()
    for _ in range(n):
        active()
    return time.perf_counter() - t0


def _measure(vectors, reps=3):
    t_dis, (cycles_dis, data_dis) = _time_workload(vectors, reps)
    n_guards = _count_guards(vectors)
    t_guard = _time_guards(n_guards)

    with session(Telemetry(label="bench")):
        t_metrics, (cycles_m, data_m) = _time_workload(vectors, reps)
    with session(Telemetry(tracing=True, label="bench")):
        t_traced, (cycles_t, data_t) = _time_workload(vectors, reps)

    assert cycles_dis == cycles_m == cycles_t
    assert np.array_equal(data_dis, data_m)
    assert np.array_equal(data_dis, data_t)

    return {
        "vectors": vectors,
        "cycles": cycles_dis,
        "disabled_s": t_dis,
        "guards": n_guards,
        "guard_s": t_guard,
        "guard_share": t_guard / t_dis,
        "metrics_s": t_metrics,
        "traced_s": t_traced,
        "metrics_vs_disabled": t_dis / t_metrics,
        "traced_vs_disabled": t_dis / t_traced,
    }


_HEADER = (
    "Telemetry overhead — guard audit of the disabled path\n"
    "(STREAM triad, batched engine; bit-identical results asserted)\n\n"
)


def _render(m):
    return (
        f"{'vectors':>24s}  {m['vectors']}\n"
        f"{'simulated cycles':>24s}  {m['cycles']}\n"
        f"{'disabled workload':>24s}  {m['disabled_s'] * 1e3:.2f} ms\n"
        f"{'guard evaluations':>24s}  {m['guards']}\n"
        f"{'guard time (upper bound)':>24s}  {m['guard_s'] * 1e6:.1f} us "
        f"({m['guard_share'] * 100:.2f}% of workload)\n"
        f"{'metrics-enabled':>24s}  {m['metrics_s'] * 1e3:.2f} ms "
        f"({m['metrics_vs_disabled']:.2f}x of disabled throughput)\n"
        f"{'tracing-enabled':>24s}  {m['traced_s'] * 1e3:.2f} ms "
        f"({m['traced_vs_disabled']:.2f}x of disabled throughput)\n"
    )


def _entry(m):
    return ReportEntry(
        experiment="telemetry overhead",
        quantity="disabled-path guard share of workload time",
        measured=round(m["guard_share"], 6),
        paper=None,
        ok=m["guard_share"] <= 0.05,
        metrics={
            "vectors": m["vectors"],
            "cycles": m["cycles"],
            "disabled_seconds": round(m["disabled_s"], 6),
            "guard_evaluations": m["guards"],
            "guard_seconds": round(m["guard_s"], 6),
            "metrics_throughput_ratio": round(m["metrics_vs_disabled"], 4),
            "tracing_throughput_ratio": round(m["traced_vs_disabled"], 4),
        },
    )


def _gates(m) -> list[dict]:
    """The 0.95x-of-pre-PR acceptance, as a guard-share bound from the
    declarative gate table."""
    return [gate("telemetry.guard_share", m["guard_share"])]


def _ledgered_report(name, text, report, m):
    save_report(
        name,
        text,
        report,
        gates=_gates(m),
        params={"workload": "stream.triad", "scheme": "batched", "vectors": m["vectors"]},
        timings={
            "disabled_s": m["disabled_s"],
            "guard_s": m["guard_s"],
            "metrics_s": m["metrics_s"],
            "traced_s": m["traced_s"],
        },
    )


def test_telemetry_overhead_smoke(benchmark):
    """CI gate: guard cost <= 5% of the disabled workload, results
    bit-identical across modes (asserted inside _measure)."""
    m = _measure(vectors=256)
    report = Report(title="Telemetry overhead (guard audit)")
    report.entries.append(_entry(m))
    _ledgered_report("telemetry_overhead_smoke", _HEADER + _render(m), report, m)
    assert m["guard_share"] <= 0.05
    benchmark(lambda: _workload(256))


def test_telemetry_overhead_report(benchmark):
    out = io.StringIO()
    out.write(_HEADER)
    report = Report(title="Telemetry overhead (guard audit)")
    for vectors in (256, 1024):
        m = _measure(vectors)
        out.write(_render(m) + "\n")
        report.entries.append(_entry(m))
        assert m["guard_share"] <= 0.05, vectors
    save_report("telemetry_overhead", out.getvalue(), report)
    with session(Telemetry(tracing=True)):
        benchmark(lambda: _workload(256))


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        m = _measure(vectors=256)
        report = Report(title="Telemetry overhead (guard audit)")
        report.entries.append(_entry(m))
        _ledgered_report("telemetry_overhead_smoke", _HEADER + _render(m), report, m)
        exit_on_failed_gates(_gates(m))
    else:
        out = io.StringIO()
        out.write(_HEADER)
        report = Report(title="Telemetry overhead (guard audit)")
        gates = []
        last = None
        for vectors in (256, 1024):
            m = _measure(vectors)
            last = m
            out.write(_render(m) + "\n")
            report.entries.append(_entry(m))
            gates.extend(_gates(m))
        _ledgered_report("telemetry_overhead", out.getvalue(), report, last)
        exit_on_failed_gates(gates)
