"""Row/column reductions through PolyMem strip accesses.

Reductions along either axis want the *other* orientation streamed: a
row-sum reads rows, a column-sum reads columns.  RoCo serves both from the
same stored matrix — one parallel access per ``p*q`` elements either way,
demonstrating the multiview pay-off on a single data structure (the
paper's §II-A motivation for multiview schemes).  Both directions lower
to one-read-one-Compute access programs (``build("kernel.reduce_rows")``,
``build("kernel.reduce_columns")``).
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

__all__ = [
    "reduce_rows",
    "reduce_columns",
    "load_matrix",
]


def load_matrix(matrix: np.ndarray, p: int = 2, q: int = 4) -> PolyMem:
    """Store *matrix* in a RoCo PolyMem sized exactly for it."""
    matrix = np.asarray(matrix, dtype=np.uint64)
    rows, cols = matrix.shape
    lanes = p * q
    if rows % lanes or cols % lanes:
        raise PatternError(
            f"matrix {rows}x{cols} must align to {lanes}-element strips"
        )
    pm = PolyMem(
        PolyMemConfig(rows * cols * 8, p=p, q=q, scheme=Scheme.RoCo,
                      rows=rows, cols=cols)
    )
    pm.load(matrix)
    pm.reset_stats()
    return pm


def _reduce_rows_program(pm: PolyMem) -> AccessProgram:
    """Lower per-row sums: one ROW read stream plus the summing Compute."""
    lanes = pm.lanes
    per_row = pm.cols // lanes
    anchors_i = np.repeat(np.arange(pm.rows), per_row)
    anchors_j = np.tile(np.arange(per_row) * lanes, pm.rows)
    rows = pm.rows
    return (
        AccessProgram("reduce_rows", metadata={"result_elements": rows})
        .read(PatternKind.ROW, anchors_i, anchors_j, tag="strips")
        .compute(
            lambda env: {
                "sums": env["strips"].reshape(rows, per_row * lanes).sum(axis=1)
            },
            label="sum",
        )
    )


def reduce_rows(pm: PolyMem) -> tuple[np.ndarray, KernelReport]:
    """Per-row sums: streams ROW accesses (batch path)."""
    res = build("kernel.reduce_rows", pm=pm).run()
    return res["sums"], res.report


def _reduce_columns_program(pm: PolyMem) -> AccessProgram:
    """Lower per-column sums: one COLUMN read stream plus the Compute."""
    lanes = pm.lanes
    per_col = pm.rows // lanes
    anchors_j = np.repeat(np.arange(pm.cols), per_col)
    anchors_i = np.tile(np.arange(per_col) * lanes, pm.cols)
    cols = pm.cols
    return (
        AccessProgram("reduce_columns", metadata={"result_elements": cols})
        .read(PatternKind.COLUMN, anchors_i, anchors_j, tag="strips")
        .compute(
            lambda env: {
                "sums": env["strips"].reshape(cols, per_col * lanes).sum(axis=1)
            },
            label="sum",
        )
    )


def reduce_columns(pm: PolyMem) -> tuple[np.ndarray, KernelReport]:
    """Per-column sums: streams COLUMN accesses over the same data."""
    res = build("kernel.reduce_columns", pm=pm).run()
    return res["sums"], res.report
