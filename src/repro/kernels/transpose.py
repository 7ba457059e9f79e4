"""Blocked matrix transpose through the ReTr scheme.

Reads ``p x q`` tiles, writes ``q x p`` tiles — both single-cycle at any
anchor under ReTr.  The library version of ``examples/matrix_transpose.py``
with batch-vectorized accesses and full cycle accounting, plus the
serialization cost a rectangle-only memory would pay.  Lowers to a
two-memory :class:`~repro.program.AccessProgram` (``src`` / ``dst``,
``build("kernel.transpose")``).
"""

from __future__ import annotations

import numpy as np

from ..core.config import PolyMemConfig
from ..core.exceptions import PatternError
from ..core.patterns import PatternKind
from ..core.polymem import PolyMem
from ..core.schemes import Scheme
from ..program import AccessProgram
from ..program.builder import build
from ..program.report import KernelReport

__all__ = ["transpose", "transpose_serial_cycles"]


def _transpose_program(
    matrix: np.ndarray, p: int = 2, q: int = 4
) -> tuple[AccessProgram, dict[str, PolyMem]]:
    """Lower the blocked transpose to a two-memory access program.

    RECTANGLE tile reads from ``src`` (tag ``tiles``), a Compute
    transposing each tile's lane order, and TRANSPOSED_RECTANGLE writes
    into ``dst`` at swapped anchors.
    """
    matrix = np.asarray(matrix, dtype=np.uint64)
    rows, cols = matrix.shape
    if rows % p or cols % q or cols % p or rows % q:
        raise PatternError(
            f"shape {rows}x{cols} must align with both tile orientations"
        )
    src = PolyMem(
        PolyMemConfig(rows * cols * 8, p=p, q=q, scheme=Scheme.ReTr,
                      rows=rows, cols=cols)
    )
    dst = PolyMem(
        PolyMemConfig(rows * cols * 8, p=p, q=q, scheme=Scheme.ReTr,
                      rows=cols, cols=rows)
    )
    src.load(matrix)
    src.reset_stats()

    bi = np.arange(0, rows, p)
    bj = np.arange(0, cols, q)
    gi, gj = np.meshgrid(bi, bj, indexing="ij")
    anchors_i, anchors_j = gi.ravel(), gj.ravel()

    def _tile_transpose(env):
        # transpose each p x q tile into q x p lane order
        tiles = env["tiles"]
        return {
            "tiles_t": tiles.reshape(-1, p, q).transpose(0, 2, 1).reshape(-1, p * q)
        }

    prog = (
        AccessProgram("transpose", metadata={"result_elements": rows * cols})
        .read(PatternKind.RECTANGLE, anchors_i, anchors_j, tag="tiles", mem="src")
        .compute(_tile_transpose, label="tile_transpose")
        .write(
            PatternKind.TRANSPOSED_RECTANGLE,
            anchors_j,
            anchors_i,
            values=lambda env: env["tiles_t"],
            mem="dst",
        )
    )
    return prog, {"src": src, "dst": dst}


def transpose(
    matrix: np.ndarray, p: int = 2, q: int = 4
) -> tuple[np.ndarray, KernelReport]:
    """Transpose via PolyMem tile traffic (ReTr, batch path).

    *matrix* must be rows x cols with ``p | rows`` and ``q | cols`` and
    square-compatible dims (``p | cols`` and ``q | rows``) so the
    transposed tiles land on a valid grid.
    """
    built = build("kernel.transpose", matrix=matrix, p=p, q=q)
    res = built.run()
    return built.mems["dst"].dump(), res.report


def transpose_serial_cycles(rows: int, cols: int, p: int = 2, q: int = 4) -> int:
    """Cycles for the same transpose on rectangle-only (ReO) banking.

    The tile reads stay single-cycle; the transposed writes conflict and
    serialize by the worst per-bank load (see
    :func:`repro.core.conflict.serialization_factor`) — ``min(p, q)``
    lanes land on each touched bank, so each write takes that many cycles.
    """
    from ..core.conflict import serialization_factor
    from ..core.schemes import Scheme

    cycles = 0
    for i in range(0, rows, p):
        for j in range(0, cols, q):
            cycles += serialization_factor(
                Scheme.ReO, PatternKind.RECTANGLE, i, j, p, q
            )
            cycles += serialization_factor(
                Scheme.ReO, PatternKind.TRANSPOSED_RECTANGLE, j, i, p, q
            )
    return cycles
