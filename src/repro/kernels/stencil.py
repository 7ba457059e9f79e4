"""Stencil sweeps fed by PolyMem rectangle accesses.

Image filters and PDE kernels read a halo-extended neighbourhood per
output tile; PolyMem serves those as dense rectangle reads at *unaligned*
anchors — the capability the paper's multimedia motivation leans on.
:func:`stencil_sweep` applies an arbitrary (2r+1)² convolution kernel
(integer weights, zero boundary) by lowering one rectangle access per
shifted window per output tile to an
:class:`~repro.program.AccessProgram` (``build("kernel.stencil")``).
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
    "stencil_sweep",
    "stencil_reference",
    "stencil_serial_cycles",
]


def stencil_reference(image: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """NumPy reference: zero-padded integer convolution (correlation)."""
    image = np.asarray(image, dtype=np.int64)
    k = weights.shape[0]
    r = k // 2
    padded = np.pad(image, r)
    out = np.zeros_like(image)
    for di in range(k):
        for dj in range(k):
            out += int(weights[di, dj]) * padded[
                di : di + image.shape[0], dj : dj + image.shape[1]
            ]
    return out


def _stencil_program(
    image: np.ndarray, weights: np.ndarray, p: int = 2, q: int = 4
) -> tuple[AccessProgram, PolyMem]:
    """Lower the stencil sweep to an access program over a ReRo memory.

    All taps' windows become one RECTANGLE read stream (tag ``tiles``);
    the accumulation is a single Compute binding the result to ``out``.
    """
    image = np.asarray(image)
    weights = np.asarray(weights)
    rows, cols = image.shape
    k = weights.shape[0]
    if weights.shape != (k, k) or k % 2 == 0:
        raise PatternError("weights must be an odd square kernel")
    if rows % p or cols % q:
        raise PatternError(f"image {rows}x{cols} must align to {p}x{q}")
    r = k // 2
    pm = PolyMem(
        PolyMemConfig(rows * cols * 8, p=p, q=q, scheme=Scheme.ReRo,
                      rows=rows, cols=cols)
    )
    pm.load(image.astype(np.uint64))
    pm.reset_stats()

    acc = np.zeros((rows, cols), dtype=np.int64)
    bi = np.arange(0, rows, p)
    bj = np.arange(0, cols, q)
    gi, gj = np.meshgrid(bi, bj, indexing="ij")
    base_i, base_j = gi.ravel(), gj.ravel()
    taps = [
        (di, dj, int(weights[di + r, dj + r]))
        for di in range(-r, r + 1)
        for dj in range(-r, r + 1)
        if int(weights[di + r, dj + r]) != 0
    ]
    nt = base_i.size
    prog = AccessProgram("stencil", metadata={"result_elements": rows * cols})
    if not taps:
        return prog.compute(lambda env: {"out": acc}, label="accumulate"), pm
    # the desired windows may poke outside the image; fetch the nearest
    # in-bounds rectangles — all taps in one replayed trace — and extract
    # the overlaps (outside cells contribute zero)
    ai_all = np.concatenate(
        [np.clip(base_i + di, 0, rows - p) for di, _, _ in taps]
    )
    aj_all = np.concatenate(
        [np.clip(base_j + dj, 0, cols - q) for _, dj, _ in taps]
    )

    def _accumulate(env):
        tiles = env["tiles"].reshape(len(taps), nt, p, q).astype(np.int64)
        acc4 = acc.reshape(rows // p, p, cols // q, q)
        a_off = np.arange(p)
        b_off = np.arange(q)
        t_idx = np.arange(nt)[:, None, None]
        for tap, (di, dj, w) in enumerate(taps):
            ai = np.clip(base_i + di, 0, rows - p)
            aj = np.clip(base_j + dj, 0, cols - q)
            gi_abs = base_i[:, None] + di + a_off[None, :]
            gj_abs = base_j[:, None] + dj + b_off[None, :]
            in_i = (gi_abs >= 0) & (gi_abs < rows)
            in_j = (gj_abs >= 0) & (gj_abs < cols)
            idx_i = np.clip(gi_abs - ai[:, None], 0, p - 1)
            idx_j = np.clip(gj_abs - aj[:, None], 0, q - 1)
            window = tiles[tap][t_idx, idx_i[:, :, None], idx_j[:, None, :]]
            window = np.where(in_i[:, :, None] & in_j[:, None, :], window, 0)
            acc4 += w * window.reshape(rows // p, cols // q, p, q).swapaxes(1, 2)
        return {"out": acc}

    prog.read(PatternKind.RECTANGLE, ai_all, aj_all, tag="tiles")
    prog.compute(_accumulate, label="accumulate")
    return prog, pm


def stencil_sweep(
    image: np.ndarray, weights: np.ndarray, p: int = 2, q: int = 4
) -> tuple[np.ndarray, KernelReport]:
    """Apply *weights* (odd-square integer kernel) through PolyMem reads.

    Boundary cells use zero padding, handled host-side in the program's
    accumulate step.
    """
    res = build("kernel.stencil", image=image, weights=weights, p=p, q=q).run()
    return res["out"], res.report


def stencil_serial_cycles(rows: int, cols: int, weights: np.ndarray) -> int:
    """Same traffic at one element per cycle."""
    taps = int(np.count_nonzero(weights))
    return rows * cols * taps
