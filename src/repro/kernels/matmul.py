"""Matrix multiply through PolyMem parallel accesses.

The classic PRF showcase (the paper cites its CG/SARC lineage): computing
``C = A @ B`` needs *rows* of A and *columns* of B simultaneously — exactly
the RoCo scheme's specialty.  Both operands live in one PolyMem (regions),
and every operand fetch is a single conflict-free parallel access:

* one ROW access per (i, k-block) of A;
* one COLUMN access per (k-block, j) of B.

A rectangle-only memory (ReO) would serialize the column fetches; the
report quantifies the difference.  The kernel *lowers* to an
:class:`~repro.program.AccessProgram` (``build("kernel.matmul")``) and
runs through the shared execution engine.
"""

from __future__ import annotations

import numpy as np

from ..core.config import PolyMemConfig
from ..core.exceptions import PatternError
from ..core.patterns import PatternKind
from ..core.polymem import PolyMem
from ..core.regions import RegionMap
from ..core.schemes import Scheme
from ..program import AccessProgram
from ..program.builder import build
from ..program.report import KernelReport

__all__ = ["matmul", "matmul_scalar_cycles"]


def _matmul_program(
    a: np.ndarray, b: np.ndarray, p: int = 2, q: int = 4
) -> tuple[AccessProgram, PolyMem]:
    """Lower ``C = A @ B`` to an access program over one RoCo memory.

    Returns the program (reads tagged ``a_rows`` / ``b_cols``, product
    bound to ``c``) and the loaded memory.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    n, k = a.shape
    k2, m = b.shape
    lanes = p * q
    if k != k2:
        raise PatternError(f"inner dimensions differ: {k} vs {k2}")
    if k % lanes or m % lanes or n % p:
        raise PatternError(
            f"dims must align to the lane grid: n%p, k%{lanes}, m%{lanes}"
        )
    # one memory, two regions, RoCo: rows AND columns anywhere
    # place both operands in a single address space wide enough for each
    cols = max(k, m)
    rows = n + k
    cfg = PolyMemConfig(
        rows * cols * 8,
        p=p,
        q=q,
        scheme=Scheme.RoCo,
        rows=rows,
        cols=cols,
    )
    pm = PolyMem(cfg)
    regions = RegionMap(pm)
    ra = regions.allocate("A", n, k)
    rb = regions.allocate("B", k, m)
    ra.store(np.pad(a, ((0, ra.rows - n), (0, ra.cols - k))))
    rb.store(np.pad(b, ((0, rb.rows - k), (0, rb.cols - m))))
    pm.reset_stats()

    kb = np.arange(0, k, lanes, dtype=np.int64)
    nb = kb.size
    # row i of A: k/lanes ROW accesses anchored at (i, kb) — one anchor
    # array, replayed as a single stream
    row_ai = np.repeat(np.arange(n, dtype=np.int64), nb) + ra.origin_i
    row_aj = np.tile(kb, n) + ra.origin_j
    # columns of B are refetched for every output row, exactly like the
    # serial inner loop: n * m * (k/lanes) COLUMN accesses
    col_ai = np.tile(kb, n * m) + rb.origin_i
    col_aj = np.tile(np.repeat(np.arange(m, dtype=np.int64), nb), n) + rb.origin_j

    def _einsum(env):
        a_rows = env["a_rows"].reshape(n, k)
        b_cols = env["b_cols"].reshape(n, m, k)
        # uint64 einsum wraps mod 2**64 like the per-(i,j) np.dot did
        return {"c": np.einsum("ik,imk->im", a_rows, b_cols)}

    prog = (
        AccessProgram("matmul", metadata={"result_elements": n * m})
        .read(PatternKind.ROW, row_ai, row_aj, tag="a_rows")
        .read(PatternKind.COLUMN, col_ai, col_aj, tag="b_cols")
        .compute(_einsum, label="einsum")
    )
    return prog, pm


def matmul(
    a: np.ndarray, b: np.ndarray, p: int = 2, q: int = 4
) -> tuple[np.ndarray, KernelReport]:
    """``C = A @ B`` with every operand fetch a parallel PolyMem access.

    Matrix dimensions must be multiples of ``p*q`` (the parallel-access
    length).  Returns the integer product and the cycle report.
    """
    res = build("kernel.matmul", a=a, b=b, p=p, q=q).run()
    return res["c"], res.report


def matmul_scalar_cycles(n: int, k: int, m: int) -> int:
    """Cycle cost of the same traffic on a one-element-per-cycle memory."""
    return n * k + n * m * k  # row fetches + per-(i,j) column fetches
