"""Unified telemetry: a metrics registry plus span tracing.

One :class:`Telemetry` session observes a whole run — PolyMem replays,
Benes routing, the tick simulator, the host/PCIe ledger, the program
engine and the exec runtime all report into it through the
:func:`~repro.telemetry.context.active` guard, which costs one function
call returning ``None`` when telemetry is off (the shipped default).

    from repro.telemetry import Telemetry, session

    tel = Telemetry(tracing=True, label="my run")
    with session(tel):
        ...  # any simulation / sweep / program execution
    tel.tracer.save("trace.json")       # load in https://ui.perfetto.dev
    print(render_summary(tel.snapshot()))

See ``docs/observability.md`` for the metric catalog and span hierarchy.
"""

from .._lazy import export_lazily

__all__ = export_lazily(__name__, {
    "context": (
        "SNAPSHOT_FORMAT", "Telemetry", "activate", "active", "deactivate",
        "session",
    ),
    "diff": (
        "Diff", "DiffRow", "diff_entries", "diff_snapshots", "render_diff",
    ),
    "ledger": ("LEDGER_FORMAT", "Ledger", "LedgerEntry", "record_run"),
    "metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    "observers": ("TelemetryObserver",),
    "regress": (
        "GATE_TABLE", "RegressReport", "check_gates", "evaluate_gate",
        "regress", "render_regress",
    ),
    "scorecard": ("build_scorecard", "render_markdown"),
    "spans": ("SpanTracer",),
    "summary": (
        "derived_metrics", "derived_values", "load_snapshot",
        "render_summary",
    ),
})
