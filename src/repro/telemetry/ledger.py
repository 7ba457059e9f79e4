"""The performance run ledger: an append-only JSONL record of every run.

Every benchmark / sweep that matters appends one :class:`LedgerEntry` —
a line of plain JSON carrying full provenance (git SHA, host
fingerprint, device backend, engine flags, model version), the run's
parameters, wall/sim timings, its gate verdicts (the uniform shape
:func:`repro.telemetry.regress.evaluate_gate` emits), a compact result
list distilled from the :class:`repro.exec.Report`, and the complete
telemetry snapshot when a session was active.  `repro telemetry ledger`
lists it and `repro telemetry regress` re-evaluates its gates against a
baseline window — see ``docs/observability.md``.

Where entries land:

* ``benchmarks/_util.save_report`` appends to ``benchmarks/out/
  ledger.jsonl`` (override with ``$REPRO_LEDGER``);
* :func:`repro.exec.run_sweep` auto-appends under ``--metrics`` whenever
  ``$REPRO_LEDGER`` names a ledger file (telemetry session active +
  destination configured — never a surprise file);
* library code can call :func:`record_run` / :meth:`Ledger.append`
  directly.

The format is append-only by construction: one self-contained JSON
object per line, unknown fields preserved, malformed lines skipped on
read (a crashed writer never poisons the history).
"""

from __future__ import annotations

import json
import os
import platform
import socket
import subprocess
import time
import uuid
from dataclasses import asdict, dataclass, field
from pathlib import Path

__all__ = [
    "LEDGER_FORMAT",
    "LedgerEntry",
    "Ledger",
    "record_run",
    "default_ledger_path",
    "host_fingerprint",
    "git_provenance",
]

LEDGER_FORMAT = "repro.telemetry.ledger/1"

#: environment variable naming the ledger file runs append to
LEDGER_ENV = "REPRO_LEDGER"


def default_ledger_path() -> Path | None:
    """The ledger destination from ``$REPRO_LEDGER``, or ``None`` when
    auto-appending is not configured."""
    path = os.environ.get(LEDGER_ENV)
    return Path(path) if path else None


def host_fingerprint() -> dict:
    """Where a run happened: enough to attribute a timing shift to the
    machine rather than the code."""
    return {
        "hostname": socket.gethostname(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpus": os.cpu_count() or 1,
    }


def git_provenance(repo_root: str | Path | None = None) -> dict:
    """The commit a run was built from: ``{"sha": ..., "dirty": ...}``
    (``sha`` is ``None`` outside a git checkout or without a git binary —
    provenance capture must never fail a run)."""
    cwd = str(repo_root) if repo_root is not None else None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, cwd=cwd,
        )
        if sha.returncode != 0:
            return {"sha": None, "dirty": None}
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True, text=True, timeout=10, cwd=cwd,
        )
        dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
        return {"sha": sha.stdout.strip(), "dirty": dirty}
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}


def _compact_results(report) -> list[dict]:
    """The scorecard-relevant distillation of a :class:`repro.exec.Report`:
    one ``{experiment, quantity, measured, ok, metrics}`` dict per entry."""
    out = []
    for e in report.entries:
        out.append(
            {
                "experiment": e.experiment,
                "quantity": e.quantity,
                "measured": e.measured,
                "ok": e.ok,
                "metrics": dict(e.metrics or {}),
            }
        )
    return out


@dataclass
class LedgerEntry:
    """One recorded run.  ``gates`` entries follow the uniform shape of
    :func:`repro.telemetry.regress.evaluate_gate` — ``{name, value, op,
    threshold, ok, detail}`` — so the regression policy engine can
    re-evaluate them bit-for-bit from the ledger alone."""

    bench: str
    ts: float = 0.0
    run_id: str = ""
    format: str = LEDGER_FORMAT
    provenance: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    gates: list = field(default_factory=list)
    results: list = field(default_factory=list)
    telemetry: dict | None = None

    @property
    def ok(self) -> bool:
        """All recorded gates passed (vacuously true with no gates)."""
        return all(g.get("ok") for g in self.gates)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "LedgerEntry":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in doc.items() if k in known})

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def record_run(
    bench: str,
    *,
    params: dict | None = None,
    gates: list | None = None,
    report=None,
    telemetry=None,
    timings: dict | None = None,
    backend: str | None = None,
    flags: dict | None = None,
    repo_root: str | Path | None = None,
) -> LedgerEntry:
    """A provenance-complete :class:`LedgerEntry` for one finished run.

    *telemetry* may be a :class:`~repro.telemetry.context.Telemetry`
    session, a ready snapshot dict, or ``None`` to capture the active
    session's snapshot (no-op when telemetry is off).  *backend* defaults
    to ``$REPRO_BACKEND`` (else the seed ``vectis`` substrate); *flags*
    records engine/backend switches that shape the run.
    """
    from ..exec.cache import MODEL_VERSION
    from . import context as _context

    if telemetry is None:
        telemetry = _context.active()
    if telemetry is not None and not isinstance(telemetry, dict):
        telemetry = telemetry.snapshot()
    entry = LedgerEntry(
        bench=bench,
        ts=time.time(),
        run_id=uuid.uuid4().hex,
        provenance={
            "git": git_provenance(repo_root),
            "host": host_fingerprint(),
            "backend": backend or os.environ.get("REPRO_BACKEND", "vectis"),
            "flags": dict(flags or {}),
            "model_version": MODEL_VERSION,
        },
        params=dict(params or {}),
        timings=dict(timings or {}),
        gates=[dict(g) for g in (gates or [])],
        results=_compact_results(report) if report is not None else [],
        telemetry=telemetry,
    )
    return entry


class Ledger:
    """An append-only JSONL ledger file."""

    def __init__(self, path: str | Path):
        self.path = Path(path)

    def append(self, entry: LedgerEntry | dict) -> LedgerEntry:
        """Append one entry as a single JSON line (creating parents)."""
        if isinstance(entry, dict):
            entry = LedgerEntry.from_dict(entry)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(entry.to_json() + "\n")
        return entry

    def entries(self, bench: str | None = None) -> list[LedgerEntry]:
        """Every parseable entry, oldest first; malformed lines are
        skipped (append-only files survive crashed writers)."""
        if not self.path.exists():
            return []
        out: list[LedgerEntry] = []
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if not isinstance(doc, dict) or "bench" not in doc:
                    continue
                entry = LedgerEntry.from_dict(doc)
                if bench is None or entry.bench == bench:
                    out.append(entry)
        return out

    def last(self, n: int = 1, bench: str | None = None) -> list[LedgerEntry]:
        """The *n* most recent entries (oldest of the window first)."""
        return self.entries(bench)[-n:]

    def benches(self) -> list[str]:
        """Distinct bench names, in first-appended order."""
        seen: dict[str, None] = {}
        for e in self.entries():
            seen.setdefault(e.bench, None)
        return list(seen)

    def __len__(self) -> int:
        return len(self.entries())


def maybe_record_sweep(experiment_id: str, sweep, telemetry) -> LedgerEntry | None:
    """Auto-ledger hook for :func:`repro.exec.run_sweep`: append a sweep
    entry when (a) a telemetry session observed the run and (b)
    ``$REPRO_LEDGER`` names a destination.  Never raises into the sweep.
    """
    path = default_ledger_path()
    if path is None or telemetry is None:
        return None
    try:
        entry = record_run(
            f"sweep.{experiment_id}",
            params={"experiments": [experiment_id], "points": len(sweep.values)},
            timings={
                "wall_seconds": sweep.wall_seconds,
                "compute_seconds": sweep.compute_seconds,
            },
            flags={"cached": len(sweep.values) if sweep.cached else 0},
            telemetry=telemetry,
        )
        return Ledger(path).append(entry)
    except Exception:  # pragma: no cover - best-effort by contract
        return None
