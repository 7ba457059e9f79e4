"""Output files: every path a user names for a command's output
(``--json``, ``--trace-out``, ``dse --save``) is written through
:func:`write_text`, so a path into a directory that does not exist yet
creates it instead of failing after the work is done."""

from __future__ import annotations

from pathlib import Path

__all__ = ["write_text"]


def write_text(path: Path | str, text: str) -> Path:
    """Write *text* to *path*, creating missing parent directories."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path
