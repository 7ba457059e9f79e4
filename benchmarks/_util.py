"""Shared helpers for the benchmark harness.

Every bench regenerates its paper table/figure as text, saves it under
``benchmarks/out/`` (so the artifacts survive pytest's output capture) and
prints it (visible with ``pytest -s``).  Benches that produce structured
results also write the unified ``repro.exec.report`` JSON schema next to
the text artifact, and the figure benches share one Table III sweep run
through the :mod:`repro.exec` runtime (:func:`dse_result`).

Every :func:`save_report` call also appends a provenance-complete entry
to the run ledger (``benchmarks/out/ledger.jsonl``, override with
``$REPRO_LEDGER``) — the data `repro telemetry ledger/regress` operate
on.  Smoke thresholds live in one declarative table
(:data:`repro.telemetry.regress.GATE_TABLE`); benches evaluate them
through :func:`gate` and fail through :func:`exit_on_failed_gates`, so
the in-process verdict and the ledger record are the same computation.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.telemetry.ledger import Ledger, default_ledger_path, record_run
from repro.telemetry.regress import check_gates, evaluate_gate

OUT_DIR = Path(__file__).parent / "out"

_DSE_RESULT = None


def dse_result():
    """The shared Table III sweep for the figure/table benches.

    Routed through ``repro.exec`` and memoized in-process; the cached
    path is timed by ``bench_table3_dse_space.py``."""
    global _DSE_RESULT
    if _DSE_RESULT is None:
        from repro.dse import explore

        _DSE_RESULT = explore()
    return _DSE_RESULT


def gate(name: str, value: float, **overrides) -> dict:
    """Evaluate one declared smoke gate and return the uniform record the
    ledger stores (``{name, value, op, threshold, ok, detail}``).

    Thresholds come from :data:`repro.telemetry.regress.GATE_TABLE`;
    conditional gates override with ``op=``/``threshold=`` (recorded, so
    ``repro telemetry regress`` re-evaluates the same branch)."""
    return evaluate_gate(name, value, **overrides)


def exit_on_failed_gates(gates: list[dict], label: str = "SMOKE") -> None:
    """Print every failed gate and exit 1 — the shared tail of all
    ``--smoke`` paths (call *after* :func:`save_report` so the failing
    run is still ledgered)."""
    failures = check_gates(gates)
    for message in failures:
        print(f"{label} FAIL: {message}")
    if failures:
        sys.exit(1)


def ledger_path() -> Path:
    """The benchmark ledger destination: ``$REPRO_LEDGER`` when set, else
    ``benchmarks/out/ledger.jsonl``."""
    return default_ledger_path() or (OUT_DIR / "ledger.jsonl")


def save_report(
    name: str,
    text: str,
    report=None,
    *,
    gates: list[dict] | None = None,
    params: dict | None = None,
    timings: dict | None = None,
    flags: dict | None = None,
) -> Path:
    """Persist a regenerated table/figure, echo it, and ledger the run.

    When *report* (a :class:`repro.exec.Report`) is given, the unified
    JSON schema is written alongside as ``benchmarks/out/<name>.json``.
    Every call appends a provenance-complete :class:`~repro.telemetry.
    ledger.LedgerEntry` (gates, params, timings, the active telemetry
    snapshot).  Ledger failures never fail a bench.
    """
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{name}.txt"
    path.write_text(text)
    if report is not None:
        report.save(OUT_DIR / f"{name}.json")
    try:
        entry = record_run(
            name,
            params=params,
            gates=gates,
            report=report,
            timings=timings,
            flags=flags,
            repo_root=Path(__file__).parent,
        )
        Ledger(ledger_path()).append(entry)
    except Exception as exc:  # pragma: no cover - best-effort by contract
        print(f"[{name}] ledger append skipped: {exc}")
    print(f"\n[{name}] written to {path}\n{text}")
    return path
