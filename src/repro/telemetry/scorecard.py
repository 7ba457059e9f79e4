"""The scorecard: the workload x scheme x backend matrix from the ledger.

The matrix's cells are measured quantities from telemetry, rebuilt from
recorded runs rather than numbers a bench chooses to print.  This module
derives that matrix from the run ledger: one cell per (workload, scheme,
backend) triple, populated from each bench's *newest* entry.

A cell's headline value is picked in preference order:

1. ``stream.achieved_vs_peak`` from the entry's telemetry snapshot
   (bandwidth as a fraction of the configured peak — the paper's Fig. 10
   axis);
2. the entry's first recorded gate value (a speedup or share ratio);
3. the first measured result quantity.

``repro telemetry scorecard --format markdown|json`` is the CLI surface;
CI uploads the markdown as the run's scorecard artifact.
"""

from __future__ import annotations

import json

from .ledger import Ledger, LedgerEntry
from .summary import derived_metrics

__all__ = ["SCORECARD_FORMAT", "build_scorecard", "render_markdown", "render_json"]

SCORECARD_FORMAT = "repro.telemetry.scorecard/1"


def _cell_value(entry: LedgerEntry) -> tuple[str, float | None]:
    """The headline ``(metric_name, value)`` of one ledger entry."""
    if entry.telemetry:
        derived = derived_metrics(entry.telemetry)
        if "stream.achieved_vs_peak" in derived:
            return "stream.achieved_vs_peak", derived["stream.achieved_vs_peak"]
    for g in entry.gates:
        if isinstance(g.get("value"), (int, float)):
            return g["name"], g["value"]
    for r in entry.results:
        if isinstance(r.get("measured"), (int, float)):
            return r.get("quantity") or "measured", r["measured"]
    return "n/a", None


def _dims(entry: LedgerEntry) -> tuple[str, str, str]:
    """The (workload, scheme, backend) coordinates of one entry.  Benches
    that declare ``params.workload`` / ``params.scheme`` land precisely;
    the rest fall back to the bench name and a ``-`` scheme."""
    params = entry.params or {}
    workload = str(params.get("workload") or entry.bench)
    scheme = str(params.get("scheme") or params.get("engine") or "-")
    backend = str((entry.provenance or {}).get("backend") or "-")
    return workload, scheme, backend


def build_scorecard(ledger: Ledger | str) -> dict:
    """The scorecard document: one cell per (workload, scheme, backend),
    from each bench's newest ledger entry."""
    if not isinstance(ledger, Ledger):
        ledger = Ledger(ledger)
    cells = []
    for bench in ledger.benches():
        entry = ledger.entries(bench)[-1]
        workload, scheme, backend = _dims(entry)
        metric, value = _cell_value(entry)
        git = (entry.provenance or {}).get("git") or {}
        cells.append(
            {
                "workload": workload,
                "scheme": scheme,
                "backend": backend,
                "metric": metric,
                "value": value,
                "ok": entry.ok,
                "gates": len(entry.gates),
                "sha": git.get("sha"),
                "ts": entry.ts,
            }
        )
    return {"format": SCORECARD_FORMAT, "cells": cells}


def _fmt_value(cell: dict) -> str:
    value = cell["value"]
    if value is None:
        return "n/a"
    if cell["metric"].endswith("_vs_peak") or cell["metric"].endswith("share"):
        return f"{100.0 * value:.1f}%"
    return f"{value:.3g}"


def render_markdown(card: dict) -> str:
    """The scorecard as a markdown table: one row per workload x scheme,
    one value column per backend, with gate status per cell."""
    cells = card.get("cells", [])
    if not cells:
        return "# Scorecard\n\n(ledger holds no runs yet)\n"
    backends = sorted({c["backend"] for c in cells})
    by_rc: dict[tuple[str, str], dict[str, dict]] = {}
    for c in cells:
        by_rc.setdefault((c["workload"], c["scheme"]), {})[c["backend"]] = c

    lines = ["# Scorecard — workload x scheme x backend", ""]
    header = ["workload", "scheme"] + backends + ["metric", "gates"]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "|".join("---" for _ in header) + "|")
    for (workload, scheme), row in sorted(by_rc.items()):
        values = []
        for backend in backends:
            c = row.get(backend)
            if c is None:
                values.append("·")
            else:
                flag = "" if c["ok"] else " ⚠"
                values.append(f"{_fmt_value(c)}{flag}")
        any_cell = next(iter(row.values()))
        gates = f"{sum(1 for c in row.values() if c['ok'])}/{len(row)} ok"
        lines.append(
            "| "
            + " | ".join(
                [workload, scheme] + values + [any_cell["metric"], gates]
            )
            + " |"
        )
    shas = {c["sha"] for c in cells if c["sha"]}
    if shas:
        lines.append("")
        lines.append(
            "Built from "
            + (
                f"commit `{next(iter(shas))[:12]}`"
                if len(shas) == 1
                else f"{len(shas)} commits"
            )
            + f", {len(cells)} cells."
        )
    return "\n".join(lines) + "\n"


def render_json(card: dict) -> str:
    return json.dumps(card, indent=2, sort_keys=True) + "\n"
