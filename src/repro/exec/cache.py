"""Content-addressed on-disk result cache for grid-shaped work.

Every sweep point is keyed by a stable SHA-256 hash of *(experiment id,
config, parameters, model version)*; the value is the point's JSON payload.
Re-running ``python -m repro dse`` or ``experiments`` after a partial run —
or after an unrelated code change — only recomputes points whose key
changed.  Bumping :data:`MODEL_VERSION` (done whenever the calibrated
synthesis/timing models change behaviour) invalidates every cached result
at once.

The cache is deliberately forgiving: a corrupted, truncated, or
foreign-format entry is treated as a miss (and evicted), never as an
error — at worst the point is recomputed.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Mapping

from ..core.config import PolyMemConfig

__all__ = [
    "MODEL_VERSION",
    "MISS",
    "cache_key",
    "default_cache_dir",
    "ResultCache",
]

#: Version tag of the analytical/calibrated models feeding every sweep
#: point.  Part of every cache key: bump it whenever the synthesis fit,
#: the cycle model, or a payload schema changes meaning.
MODEL_VERSION = "2026.08.1"

#: on-disk entry envelope version
_ENTRY_FORMAT = "repro.exec.cache/1"


class _Miss:
    """Sentinel for a cache miss (distinct from a cached ``None``)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<cache MISS>"

    def __bool__(self) -> bool:
        return False


MISS = _Miss()


def _canonical(value: Any) -> Any:
    """Reduce *value* to canonical plain-JSON data for hashing."""
    if isinstance(value, PolyMemConfig):
        return value.to_dict()
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if hasattr(value, "value") and not isinstance(value, (int, float, str, bool)):
        return _canonical(value.value)  # enums (Scheme, PatternKind, ...)
    return value


def cache_key(
    experiment_id: str,
    config: Any = None,
    params: Mapping[str, Any] | None = None,
    model_version: str | None = None,
) -> str:
    """Stable content hash of one sweep point.

    Identical inputs produce the identical hex digest in every process and
    interpreter invocation (the payload is canonical sorted-key JSON fed to
    SHA-256 — no dependence on ``PYTHONHASHSEED`` or dict order).
    """
    payload = {
        "experiment": experiment_id,
        "config": _canonical(config),
        "params": _canonical(dict(params or {})),
        "model_version": model_version or MODEL_VERSION,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def default_cache_dir() -> Path:
    """The CLI's default cache location: ``$REPRO_CACHE_DIR`` if set, else
    ``$XDG_CACHE_HOME/repro`` (``~/.cache/repro``)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    return Path(xdg) / "repro"


class ResultCache:
    """A content-addressed JSON result store (one file per key).

    Values must be plain-JSON data (the sweep functions all return dicts of
    numbers/strings).  ``get`` returns :data:`MISS` — never raises — on any
    missing, unreadable, corrupted, or mismatched entry.
    """

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        """Entry location: two-level fan-out keeps directories small."""
        return self.directory / key[:2] / f"{key}.json"

    def get(self, key: str) -> Any:
        """The cached value for *key*, or :data:`MISS`."""
        path = self.path_for(key)
        try:
            entry = json.loads(path.read_text())
        except (OSError, ValueError, UnicodeDecodeError):
            if path.exists():
                self._evict(path)  # corrupted: recover by recomputing
            self.misses += 1
            return MISS
        if (
            not isinstance(entry, dict)
            or entry.get("format") != _ENTRY_FORMAT
            or entry.get("key") != key
        ):
            self._evict(path)
            self.misses += 1
            return MISS
        self.hits += 1
        return entry["value"]

    def get_many(self, keys) -> dict:
        """Batch lookup: ``{key: value}`` for every hit (misses absent).

        Equivalent to ``{k: cache.get(k) for k in keys if hit}``, but the
        existence probe is one directory scan per two-hex-char fan-out
        prefix instead of one failed ``open()`` per absent key — the
        common cold-sweep case stops paying per-key I/O errors.  Hit/miss
        counters and corrupted-entry eviction behave exactly like
        :meth:`get` (parity is pinned in ``tests/exec/test_cache.py``).
        """
        keys = list(keys)
        by_prefix: dict[str, list[str]] = {}
        for key in keys:
            by_prefix.setdefault(key[:2], []).append(key)
        out: dict[str, Any] = {}
        for prefix, group in by_prefix.items():
            try:
                with os.scandir(self.directory / prefix) as it:
                    present = {entry.name for entry in it}
            except OSError:
                present = set()
            for key in group:
                if f"{key}.json" not in present:
                    self.misses += 1
                    continue
                value = self.get(key)  # full validation + eviction path
                if value is not MISS:
                    out[key] = value
        return out

    def put(self, key: str, value: Any) -> None:
        """Store *value* under *key* (see :meth:`put_many`)."""
        self.put_many({key: value})

    def put_many(self, entries: Mapping[str, Any]) -> None:
        """Batch store: one ``mkdir`` per fan-out prefix, then one atomic
        rename per entry — persisting a whole dispatch group costs one
        directory round-trip instead of one per point.  Best effort on
        I/O failure: a cache must never take the computation down."""
        made: set[str] = set()
        for key, value in entries.items():
            prefix = key[:2]
            if prefix not in made:
                try:
                    (self.directory / prefix).mkdir(parents=True, exist_ok=True)
                except OSError:  # pragma: no cover - permissions
                    continue
                made.add(prefix)
            path = self.path_for(key)
            entry = {"format": _ENTRY_FORMAT, "key": key, "value": value}
            try:
                tmp = path.with_suffix(f".tmp.{os.getpid()}")
                tmp.write_text(json.dumps(entry))
                tmp.replace(path)
            except OSError:  # pragma: no cover - disk full / permissions
                pass

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def __len__(self) -> int:
        if not self.directory.is_dir():
            return 0
        return sum(1 for _ in self.directory.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        n = 0
        if self.directory.is_dir():
            for path in self.directory.glob("*/*.json"):
                self._evict(path)
                n += 1
        return n

    @staticmethod
    def _evict(path: Path) -> None:
        try:
            path.unlink()
        except OSError:  # pragma: no cover - already gone / permissions
            pass
