"""Jacobi iteration on PolyMem: an iterative PDE smoother.

One Jacobi step of the 2-D Laplace problem replaces every interior cell by
the mean of its four neighbours.  The kernel keeps the grid resident in
PolyMem across iterations — the data-reuse pattern the paper's software
cache targets: stage once, iterate many times, write back once.

Values are float64, bit-cast into PolyMem's 64-bit words (the same
convention as the STREAM arithmetic kernels).  Each sweep fetches four
shifted neighbour windows per tile row using strip (ROW) accesses; the
update happens host-side, and the new grid is written back with ROW
strips.  The whole solve lowers to one
:class:`~repro.program.AccessProgram` (``build("kernel.jacobi")``) —
sweep reads and write-backs alternate as separate traces, so every
sweep observes the previous write-back exactly as the hand-built loop
did.
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

__all__ = ["jacobi_reference", "jacobi_solve"]


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


def _floats(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.uint64).view(np.float64)


def jacobi_reference(grid: np.ndarray, iterations: int) -> np.ndarray:
    """NumPy reference: fixed (Dirichlet) boundary, interior averaged."""
    g = np.array(grid, dtype=np.float64)
    for _ in range(iterations):
        nxt = g.copy()
        nxt[1:-1, 1:-1] = 0.25 * (
            g[:-2, 1:-1] + g[2:, 1:-1] + g[1:-1, :-2] + g[1:-1, 2:]
        )
        g = nxt
    return g


def _jacobi_program(
    grid: np.ndarray, iterations: int, p: int = 2, q: int = 4
) -> tuple[AccessProgram, PolyMem]:
    """Lower *iterations* Jacobi sweeps to one access program.

    Per sweep ``it``: one ROW read stream of every interior row's north,
    south and center strips (tag ``sweep{it}``), a Compute producing the
    averaged rows, and a late-bound ROW write stream of them.
    """
    grid = np.asarray(grid, dtype=np.float64)
    rows, cols = grid.shape
    lanes = p * q
    if rows % p or cols % lanes:
        raise PatternError(
            f"grid {rows}x{cols} must align to p={p} rows and "
            f"{lanes}-element strips"
        )
    if rows < 3:
        raise PatternError("need at least one interior row")
    pm = PolyMem(
        PolyMemConfig(rows * cols * 8, p=p, q=q, scheme=Scheme.ReRo,
                      rows=rows, cols=cols)
    )
    pm.load(_bits(grid).reshape(rows, cols))
    pm.reset_stats()
    per_row = cols // lanes
    strip_j = np.arange(per_row) * lanes
    interior = np.arange(1, rows - 1, dtype=np.int64)
    # every interior row's strips, row-major: (rows-2) * per_row anchors
    row_ai = np.repeat(interior, per_row)
    row_aj = np.tile(strip_j, interior.size)
    n_int = interior.size

    prog = AccessProgram("jacobi", metadata={"result_elements": rows * cols})
    for it in range(iterations):
        # all of a sweep's neighbour fetches in one replayed trace:
        # north, south and center strips for every interior row
        prog.read(
            PatternKind.ROW,
            np.concatenate([row_ai - 1, row_ai + 1, row_ai]),
            np.concatenate([row_aj, row_aj, row_aj]),
            tag=f"sweep{it}",
        )

        def _average(env, it=it):
            north, south, center = (
                _floats(part.ravel()).reshape(n_int, cols)
                for part in np.split(env[f"sweep{it}"], 3)
            )
            west = np.empty_like(center)
            east = np.empty_like(center)
            west[:, 1:] = center[:, :-1]
            west[:, 0] = center[:, 0]  # boundary column stays fixed anyway
            east[:, :-1] = center[:, 1:]
            east[:, -1] = center[:, -1]
            updated = center.copy()
            updated[:, 1:-1] = 0.25 * (
                north[:, 1:-1] + south[:, 1:-1] + west[:, 1:-1] + east[:, 1:-1]
            )
            return {f"wb{it}": _bits(updated.ravel()).reshape(-1, lanes)}

        prog.compute(_average, label=f"average{it}")
        # write the sweep back (Jacobi: updates use the old grid only)
        prog.write(
            PatternKind.ROW,
            row_ai,
            row_aj,
            values=lambda env, it=it: env[f"wb{it}"],
        )
    return prog, pm


def jacobi_solve(
    grid: np.ndarray, iterations: int, p: int = 2, q: int = 4
) -> tuple[np.ndarray, KernelReport]:
    """Run *iterations* Jacobi sweeps with all grid traffic through PolyMem."""
    built = build("kernel.jacobi", grid=grid, iterations=iterations, p=p, q=q)
    res = built.run()
    pm = built.mems["default"]
    rows, cols = np.asarray(grid).shape
    result = _floats(pm.dump().ravel()).reshape(rows, cols)
    return result, res.report
