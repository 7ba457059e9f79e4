"""The unified run/result report schema.

One JSON shape — *(experiment id, config, metrics, paper reference value,
measured value, relative error, pass mark)* per entry — shared by the
``benchmarks/out/*`` writers, ``repro.dse.report``, and the
``python -m repro experiments`` scorecard, replacing the three bespoke
text formats that used to exist.  The human-readable tables remain, as
renderers *over* this schema (:meth:`Report.render`), and every CLI
subcommand can emit the raw schema with ``--json``.
"""

from __future__ import annotations

import io
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..core.exceptions import ConfigurationError
from .cache import MODEL_VERSION

__all__ = ["REPORT_FORMAT", "ReportEntry", "Report", "rel_error"]

REPORT_FORMAT = "repro.exec.report/1"


def rel_error(measured: float | None, paper: float | None) -> float | None:
    """Signed relative error vs the paper's reference value (None when
    either side is missing or the reference is zero)."""
    if measured is None or paper is None or paper == 0:
        return None
    return (measured - paper) / paper


@dataclass(frozen=True)
class ReportEntry:
    """One reported quantity of one experiment."""

    experiment: str  #: paper artifact id, e.g. ``"Table IV"`` / ``"Fig. 10"``
    quantity: str  #: what was measured, e.g. ``"peak write bandwidth"``
    measured: Any = None  #: the reproduction's value (number or string)
    paper: Any = None  #: the paper's reference value, when one exists
    rel_err: float | None = None  #: measured vs paper (when both numeric)
    ok: bool | None = None  #: pass mark (None: informational entry)
    config: dict | None = None  #: ``PolyMemConfig.to_dict()`` of the point
    metrics: dict = field(default_factory=dict)  #: extra named numbers

    @classmethod
    def compare(
        cls,
        experiment: str,
        quantity: str,
        measured: float | None,
        paper: float | None,
        tolerance: float | None = None,
        config: dict | None = None,
        metrics: Mapping[str, Any] | None = None,
    ) -> "ReportEntry":
        """Entry with ``rel_err`` derived and, when *tolerance* is given,
        the pass mark set from ``|rel_err| <= tolerance``."""
        err = rel_error(measured, paper)
        ok = None
        if tolerance is not None and err is not None:
            ok = abs(err) <= tolerance
        return cls(
            experiment=experiment,
            quantity=quantity,
            measured=measured,
            paper=paper,
            rel_err=err,
            ok=ok,
            config=dict(config) if config else None,
            metrics=dict(metrics or {}),
        )


@dataclass
class Report:
    """A titled collection of entries plus run metadata."""

    title: str
    entries: list[ReportEntry] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.meta.setdefault("model_version", MODEL_VERSION)

    # -- aggregation --------------------------------------------------------
    @property
    def n_checked(self) -> int:
        return sum(1 for e in self.entries if e.ok is not None)

    @property
    def n_passed(self) -> int:
        return sum(1 for e in self.entries if e.ok)

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in self.entries if e.ok is not None)

    def add_sweep_meta(self, sweep) -> None:
        """Fold a :class:`~repro.exec.runtime.SweepResult`'s accounting into
        ``meta`` (accumulating across several sweeps)."""
        n = len(sweep.values)
        self.meta["sweep_points"] = self.meta.get("sweep_points", 0) + n
        self.meta["sweep_cached"] = (
            self.meta.get("sweep_cached", 0) + (n if sweep.cached else 0)
        )
        self.meta["sweep_wall_seconds"] = round(
            self.meta.get("sweep_wall_seconds", 0.0) + sweep.wall_seconds, 6
        )

    def attach_telemetry(self, telemetry=None) -> None:
        """Merge a telemetry snapshot into ``meta["telemetry"]``.

        *telemetry* may be a :class:`~repro.telemetry.Telemetry` session, a
        ready snapshot dict, or ``None`` to use the active session (no-op
        when telemetry is off) — so report producers can call this
        unconditionally.
        """
        if telemetry is None:
            from ..telemetry import context as _telemetry

            telemetry = _telemetry.active()
            if telemetry is None:
                return
        snapshot = (
            telemetry if isinstance(telemetry, dict) else telemetry.snapshot()
        )
        self.meta["telemetry"] = snapshot

    # -- serialization ------------------------------------------------------
    def to_json(self, indent: int | None = 2) -> str:
        payload = {
            "format": REPORT_FORMAT,
            "title": self.title,
            "meta": self.meta,
            "entries": [asdict(e) for e in self.entries],
        }
        return json.dumps(payload, indent=indent, sort_keys=False)

    @classmethod
    def from_json(cls, text: str) -> "Report":
        payload = json.loads(text)
        if payload.get("format") != REPORT_FORMAT:
            raise ConfigurationError(
                f"not a repro report (format {payload.get('format')!r})"
            )
        return cls(
            title=payload["title"],
            entries=[ReportEntry(**e) for e in payload["entries"]],
            meta=payload.get("meta", {}),
        )

    def save(self, path: str | Path) -> Path:
        from ..util.output import write_text

        return write_text(path, self.to_json())

    # -- human rendering ----------------------------------------------------
    def render(self, header: bool = True) -> str:
        """The generic human table over the schema: entries grouped by
        experiment, pass marks, paper-vs-measured with relative error."""
        out = io.StringIO()
        if header:
            out.write(f"{self.title}\n")
            out.write("=" * max(20, len(self.title)) + "\n")
        current = None
        for e in self.entries:
            if e.experiment != current:
                current = e.experiment
                out.write(f"\n{current}\n" + "-" * len(current) + "\n")
            mark = "    " if e.ok is None else ("PASS" if e.ok else "FAIL")
            out.write(f"  [{mark}] {e.quantity}\n")
            if e.paper is not None:
                out.write(f"         paper:    {_fmt(e.paper)}\n")
            if e.measured is not None:
                err = (
                    f"  (rel. err {e.rel_err * 100:+.2f}%)"
                    if e.rel_err is not None
                    else ""
                )
                out.write(f"         measured: {_fmt(e.measured)}{err}\n")
        if self.n_checked:
            out.write(f"\n{self.n_passed}/{self.n_checked} checks passed\n")
        if "sweep_points" in self.meta:
            out.write(
                f"sweep: {self.meta['sweep_points']} points, "
                f"{self.meta['sweep_cached']} cached, "
                f"{self.meta['sweep_wall_seconds']:.3f} s\n"
            )
        return out.getvalue()


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def entries_from_series(
    experiment: str,
    series: Mapping[Any, Sequence[tuple[str, float]]],
    quantity: str,
    configs: Mapping[tuple, dict] | None = None,
) -> list[ReportEntry]:
    """Schema entries from a ``figure_series``-shaped mapping (one entry
    per scheme x column cell)."""
    entries = []
    for scheme, row in series.items():
        name = getattr(scheme, "value", str(scheme))
        for label, value in row:
            entries.append(
                ReportEntry(
                    experiment=experiment,
                    quantity=f"{quantity} [{name} @ {label}]",
                    measured=value,
                    config=(configs or {}).get((name, label)),
                )
            )
    return entries
