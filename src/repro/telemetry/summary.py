"""Snapshot loading and the human-facing telemetry summary.

``repro telemetry summary FILE`` (and ``--metrics`` on run commands)
renders a snapshot's raw counters plus the *derived* quantities the
paper reasons in: achieved vs. theoretical bandwidth (Fig. 10), stall
and scalar-fallback percentages with the fallback reasons (batched
engine), cache hit rates (plans, fused kernels, exec results) and PCIe
overhead share (§V's ~300 ns amortization).

Accepted inputs: a raw telemetry snapshot (``repro.telemetry/1``) or a
``repro.exec.report/1`` JSON whose ``meta.telemetry`` block carries one.

Partial snapshots (a run that died mid-bench, or an older format
missing a counter group) degrade to ``n/a`` cells rather than KeyError:
the summary of a broken run is exactly when you need the summary.
"""

from __future__ import annotations

import json

from .context import SNAPSHOT_FORMAT

__all__ = ["load_snapshot", "derived_values", "render_summary"]


def load_snapshot(source) -> dict:
    """A telemetry snapshot from a dict, a JSON file path, or a
    ``repro.exec`` report carrying one in ``meta.telemetry``."""
    doc = source
    if not isinstance(doc, dict):
        with open(doc, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if doc.get("format") == SNAPSHOT_FORMAT:
        return doc
    telemetry = doc.get("meta", {}).get("telemetry")
    if isinstance(telemetry, dict) and telemetry.get("format") == SNAPSHOT_FORMAT:
        return telemetry
    raise ValueError(
        "no telemetry snapshot found (expected format "
        f"{SNAPSHOT_FORMAT!r} or an exec report with meta.telemetry)"
    )


def _rate(hits, misses) -> float | None:
    total = hits + misses
    return hits / total if total else None


def _gauge_value(gauges: dict, name: str):
    """A gauge's last value, ``None`` when the record is missing or is
    not the expected dict shape (partial / truncated snapshot)."""
    record = gauges.get(name)
    return record.get("value") if isinstance(record, dict) else None


def _groups(snapshot: dict) -> tuple[dict, dict, dict]:
    """The counter/gauge/histogram groups of a snapshot, each normalized
    to a dict even when the group is absent or explicitly null."""
    metrics = snapshot.get("metrics") or {}
    return (
        metrics.get("counters") or {},
        metrics.get("gauges") or {},
        metrics.get("histograms") or {},
    )


def derived_values(snapshot: dict) -> list[tuple[str, str]]:
    """Paper-relevant quantities computed from raw instruments, as
    ``(label, formatted value)`` pairs; absent inputs are skipped."""
    c, g, _ = _groups(snapshot)
    out: list[tuple[str, str]] = []

    scalar = c.get("sim.cycles.scalar", 0)
    batched = c.get("sim.cycles.batched", 0)
    total_cycles = scalar + batched
    if total_cycles:
        stall = c.get("sim.stall_cycles", 0)
        out.append(("simulated cycles", f"{total_cycles}"))
        out.append(
            ("stall cycles", f"{stall} ({100.0 * stall / total_cycles:.2f}%)")
        )
        out.append(
            (
                "scalar-fallback cycles",
                f"{scalar} ({100.0 * scalar / total_cycles:.2f}%)",
            )
        )
    prefix = "sim.plan_rejects."
    reasons = sorted(
        (-count, name[len(prefix):])
        for name, count in c.items()
        if name.startswith(prefix)
    )
    if reasons:
        out.append(
            (
                "scalar-fallback reasons",
                ", ".join(f"{reason} {-count}" for count, reason in reasons),
            )
        )

    plan_rate = _rate(
        c.get("polymem.plan_cache.hits", 0), c.get("polymem.plan_cache.misses", 0)
    )
    if plan_rate is not None:
        out.append(("plan-cache hit rate", f"{100.0 * plan_rate:.1f}%"))
    kernel_rate = _rate(
        c.get("program.fusion.kernel_cache.hits", 0),
        c.get("program.fusion.kernel_cache.misses", 0),
    )
    if kernel_rate is not None:
        out.append(
            ("fusion kernel-cache hit rate", f"{100.0 * kernel_rate:.1f}%")
        )
    fused_steps = c.get("program.fusion.steps", 0)
    fallback_steps = c.get("program.fusion.fallback_steps", 0)
    if fused_steps or fallback_steps:
        total_steps = fused_steps + fallback_steps
        out.append(
            (
                "fused trace steps",
                f"{fused_steps} of {total_steps} "
                f"({100.0 * fused_steps / total_steps:.1f}%)",
            )
        )

    achieved = _gauge_value(g, "stream.achieved_mbps")
    peak = _gauge_value(g, "stream.peak_mbps")
    if achieved is not None and peak:
        out.append(
            (
                "achieved vs peak bandwidth",
                f"{achieved:.1f} / {peak:.1f} MB/s "
                f"({100.0 * achieved / peak:.1f}% of peak)",
            )
        )

    pcie_ns = c.get("pcie.ns", 0.0)
    if pcie_ns:
        overhead = c.get("pcie.overhead_ns", 0.0)
        out.append(
            (
                "PCIe time",
                f"{pcie_ns / 1e3:.1f} us over {c.get('pcie.calls', 0)} calls, "
                f"{c.get('pcie.payload_bytes', 0)} B payload "
                f"({100.0 * overhead / pcie_ns:.1f}% call overhead)",
            )
        )

    batch_configs = c.get("dse.batch.configs", 0)
    passes = c.get("dse.batch.passes", 0)
    if batch_configs and passes:
        out.append(
            ("DSE configs per batch pass", f"{batch_configs / passes:.1f}")
        )
    candidates = c.get("dse.batch.candidates", 0)
    if candidates:
        pruned = c.get("dse.batch.pruned", 0)
        out.append(
            (
                "DSE prune rate",
                f"{pruned} of {candidates} candidates "
                f"({100.0 * pruned / candidates:.1f}%)",
            )
        )

    exec_rate = _rate(c.get("exec.cache.hits", 0), c.get("exec.cache.misses", 0))
    if exec_rate is not None:
        out.append(("exec cache hit rate", f"{100.0 * exec_rate:.1f}%"))
    return out


def _fmt_number(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _cell(record, key) -> str:
    """One field of a gauge/histogram record, ``n/a`` when the record is
    not a dict or the field is missing (partial / truncated snapshot)."""
    if not isinstance(record, dict):
        return "n/a"
    return _fmt_number(record.get(key))


def render_summary(snapshot: dict) -> str:
    """The full pretty-printed summary: counters, gauges, histograms,
    then the derived section.  Missing groups and partial records render
    as ``n/a`` — a summary must never be less robust than the run it
    summarizes."""
    counters, gauges, histograms = _groups(snapshot)
    lines: list[str] = []
    label = snapshot.get("label") or ""
    title = f"telemetry summary{f' — {label}' if label else ''}"
    lines.append(title)
    lines.append("=" * len(title))

    if counters:
        lines.append("")
        lines.append("counters")
        width = max(len(k) for k in counters)
        for name, value in counters.items():
            lines.append(f"  {name:<{width}}  {_fmt_number(value)}")

    if gauges:
        lines.append("")
        lines.append("gauges (last / min / max)")
        width = max(len(k) for k in gauges)
        for name, gv in gauges.items():
            lines.append(
                f"  {name:<{width}}  {_cell(gv, 'value')}"
                f" / {_cell(gv, 'min')} / {_cell(gv, 'max')}"
            )

    if histograms:
        lines.append("")
        lines.append("histograms (count / mean / max)")
        width = max(len(k) for k in histograms)
        for name, hv in histograms.items():
            lines.append(
                f"  {name:<{width}}  {_cell(hv, 'count')}"
                f" / {_cell(hv, 'mean')} / {_cell(hv, 'max')}"
            )

    try:
        derived = derived_values(snapshot)
    except (AttributeError, KeyError, TypeError, ZeroDivisionError):
        derived = [("derived metrics", "n/a (partial snapshot)")]
    if derived:
        lines.append("")
        lines.append("derived")
        width = max(len(k) for k, _ in derived)
        for name, value in derived:
            lines.append(f"  {name:<{width}}  {value}")

    if snapshot.get("trace_events") is not None:
        lines.append("")
        lines.append(f"trace events: {snapshot['trace_events']}")
    return "\n".join(lines)
