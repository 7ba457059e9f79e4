"""Content-addressed on-disk result cache: one entry per sweep.

A sweep is keyed by a stable SHA-256 hash of *(experiment id, configs,
parameters, model version)*; its entry holds the sweep's per-config JSON
payloads, in config order.  A warm ``python -m repro dse`` or
``experiments`` reads each of its sweeps back from one file.  Bumping
:data:`MODEL_VERSION` (done whenever the calibrated synthesis/timing
models change behaviour) invalidates every cached result at once.

The cache is deliberately forgiving: an unreadable, truncated,
foreign-format, wrong-key or wrong-length entry is treated as a miss
(and evicted), never as an error — at worst the sweep is recomputed.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Mapping, Sequence

from ..core.config import PolyMemConfig

__all__ = [
    "MODEL_VERSION",
    "cache_key",
    "default_cache_dir",
    "ResultCache",
]

#: Version tag of the analytical/calibrated models feeding every sweep.
#: Part of every cache key: bump it whenever the synthesis fit, the cycle
#: model, or a payload schema changes meaning.
MODEL_VERSION = "2026.08.1"

#: on-disk entry envelope version
_ENTRY_FORMAT = "repro.exec.cache/2"


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
    configs: Sequence[Any],
    params: Mapping[str, Any] | None = None,
) -> str:
    """Stable content hash of one sweep.

    Identical inputs produce the identical hex digest in every process and
    interpreter invocation (the payload is canonical sorted-key JSON fed to
    SHA-256 — no dependence on ``PYTHONHASHSEED`` or dict order).
    """
    payload = {
        "experiment": experiment_id,
        "configs": _canonical(list(configs)),
        "params": _canonical(dict(params or {})),
        "model_version": MODEL_VERSION,
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
    """A JSON result store with one file per sweep, ``<directory>/<key>.json``.

    Values are lists of plain-JSON payloads (the sweep functions all
    return dicts of numbers/strings).
    """

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def get(self, key: str, n: int) -> list | None:
        """The *n* cached payloads of sweep *key*, or ``None`` on a miss.

        Never raises: a damaged entry — unreadable, truncated,
        foreign-format, stored under another key or not holding *n*
        payloads — is evicted and reported as a miss.
        """
        path = self.path_for(key)
        try:
            entry = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            entry = None
        if (
            isinstance(entry, dict)
            and entry.get("format") == _ENTRY_FORMAT
            and entry.get("key") == key
            and isinstance(entry.get("values"), list)
            and len(entry["values"]) == n
        ):
            return entry["values"]
        try:
            path.unlink()
        except OSError:  # pragma: no cover - already gone / permissions
            pass
        return None

    def put(self, key: str, values: list) -> None:
        """Store sweep *key*'s payloads with an atomic rename.  Best effort
        on I/O failure: a cache must never take the computation down."""
        path = self.path_for(key)
        entry = {"format": _ENTRY_FORMAT, "key": key, "values": values}
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(f".tmp.{os.getpid()}")
            tmp.write_text(json.dumps(entry))
            tmp.replace(path)
        except OSError:  # pragma: no cover - disk full / permissions
            pass
