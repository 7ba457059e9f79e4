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
    prog = AccessProgram("stencil", metadata={"result_elements": rows * cols})
    if not taps:
        out = np.zeros((rows, cols), dtype=np.int64)
        return prog.compute(lambda env: {"out": out}, label="accumulate"), pm
    # the desired windows may poke outside the image; fetch the nearest
    # in-bounds rectangles — all taps in one replayed trace — and extract
    # the overlaps (outside cells contribute zero)
    tap_di, tap_dj, tap_w = (np.array(col)[:, None] for col in zip(*taps))
    want_i = base_i + tap_di  # (taps, tiles) window anchors
    want_j = base_j + tap_dj
    ai = np.clip(want_i, 0, rows - p)
    aj = np.clip(want_j, 0, cols - q)
    # per tap and tile: the wanted cells' rows (taps, tiles, p) and
    # columns (taps, tiles, q), and where they sit in the fetched tile
    cell_i = want_i[:, :, None] + np.arange(p)
    cell_j = want_j[:, :, None] + np.arange(q)
    lane_i = np.clip(cell_i - ai[:, :, None], 0, p - 1)
    lane_j = np.clip(cell_j - aj[:, :, None], 0, q - 1)
    # the lane-gather table into the flat (taps * tiles, p * q) read
    # stream and each gathered element's weight (0 outside the image)
    tile0 = np.arange(ai.size).reshape(ai.shape)[:, :, None, None] * (p * q)
    gather = tile0 + lane_i[:, :, :, None] * q + lane_j[:, :, None, :]
    inside = ((cell_i >= 0) & (cell_i < rows))[:, :, :, None] & (
        (cell_j >= 0) & (cell_j < cols)
    )[:, :, None, :]
    weight = np.where(inside, tap_w[:, :, None, None], 0)

    def _accumulate(env):
        tiles = env["tiles"].reshape(-1).astype(np.int64)
        acc = (tiles[gather] * weight).sum(axis=0)  # (tiles, p, q)
        out = acc.reshape(rows // p, cols // q, p, q).swapaxes(1, 2)
        return {"out": out.reshape(rows, cols)}

    prog.read(PatternKind.RECTANGLE, ai.ravel(), aj.ravel(), tag="tiles")
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
