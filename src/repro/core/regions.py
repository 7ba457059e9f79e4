"""Memory regions: the programmer's view of PolyMem (paper Fig. 2).

Figure 2 of the paper shows a 2-D logical address space holding ten
*Regions* (R0–R9) of different shapes — matrices, rows, columns, diagonals
— each read with one or several parallel accesses.  This module provides
that abstraction:

* :class:`Region` — a named rectangular window of the PolyMem address
  space with relative-coordinate parallel reads and writes, plus whole-
  region :meth:`~Region.store`/:meth:`~Region.load` host transfers;
* :class:`RegionMap` — an allocator that places regions into a PolyMem
  without overlap (the "software cache" placement the paper's §I
  envisions: *"programmers easily place data structures such as vectors
  and matrices in this smart buffer"*).

Allocation uses a simple shelf packer aligned to the lane grid, so every
region's origin is block-aligned — which guarantees that aligned-rectangle
loads/stores work under every scheme.  Regions are never freed: a map
lives as long as the kernel that placed its operands.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import AddressError, CapacityError, PatternError
from .patterns import PatternKind
from .polymem import PolyMem

__all__ = ["Region", "RegionMap"]


@dataclass
class Region:
    """A named rows x cols window at (origin_i, origin_j) of a PolyMem."""

    name: str
    origin_i: int
    origin_j: int
    rows: int
    cols: int
    memory: PolyMem = field(repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def _check(self, i: int, j: int) -> None:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise AddressError(
                f"region {self.name!r}: ({i},{j}) outside {self.rows}x{self.cols}"
            )

    # -- parallel accesses in region-relative coordinates ------------------
    def read(self, kind: PatternKind, i: int, j: int, port: int = 0) -> np.ndarray:
        """One parallel read anchored at region-relative (i, j)."""
        self._check(i, j)
        return self.memory.read(kind, self.origin_i + i, self.origin_j + j, port)

    def write(self, kind: PatternKind, i: int, j: int, values) -> None:
        """One parallel write anchored at region-relative (i, j)."""
        self._check(i, j)
        self.memory.write(kind, self.origin_i + i, self.origin_j + j, values)

    # -- bulk host transfers ------------------------------------------------
    def store(self, matrix: np.ndarray) -> None:
        """Fill the whole region from a host matrix (block-aligned writes)."""
        matrix = np.asarray(matrix)
        if matrix.shape != self.shape:
            raise PatternError(
                f"region {self.name!r} expects {self.shape}, got {matrix.shape}"
            )
        p, q = self.memory.p, self.memory.q
        blocks = (
            matrix.reshape(self.rows // p, p, self.cols // q, q)
            .swapaxes(1, 2)
            .reshape(-1, p * q)
        )
        self.memory.write_batch(
            PatternKind.RECTANGLE, *self._tile_anchors(), blocks, check=False
        )

    def load(self) -> np.ndarray:
        """Read the whole region back into a host matrix."""
        p, q = self.memory.p, self.memory.q
        blocks = self.memory.read_batch(
            PatternKind.RECTANGLE, *self._tile_anchors(), check=False
        )
        return (
            blocks.reshape(self.rows // p, self.cols // q, p, q)
            .swapaxes(1, 2)
            .reshape(self.rows, self.cols)
        )

    def _tile_anchors(self) -> tuple[np.ndarray, np.ndarray]:
        """Absolute anchors of the ``p x q`` tiles covering the region,
        row-major."""
        p, q = self.memory.p, self.memory.q
        gi, gj = np.meshgrid(
            np.arange(0, self.rows, p), np.arange(0, self.cols, q), indexing="ij"
        )
        return gi.ravel() + self.origin_i, gj.ravel() + self.origin_j


class RegionMap:
    """Places named regions into a PolyMem (shelf allocator, block-aligned).

    >>> from repro.core.config import PolyMemConfig, KB
    >>> pm = PolyMem(PolyMemConfig(4 * KB, p=2, q=4))
    >>> rm = RegionMap(pm)
    >>> a = rm.allocate("A", 4, 8)
    >>> b = rm.allocate("B", 4, 8)
    >>> (a.origin_i, a.origin_j) != (b.origin_i, b.origin_j)
    True
    """

    def __init__(self, memory: PolyMem):
        self.memory = memory
        self.regions: dict[str, Region] = {}
        self._shelf_i = 0      # top of the current shelf
        self._shelf_h = 0      # height of the current shelf
        self._cursor_j = 0     # next free column on the current shelf

    def _align(self, value: int, step: int) -> int:
        return -(-value // step) * step

    def allocate(self, name: str, rows: int, cols: int) -> Region:
        """Allocate a rows x cols region; origin is lane-grid aligned.

        Raises :class:`CapacityError` when the space is exhausted and
        :class:`PatternError` on duplicate names.
        """
        if name in self.regions:
            raise PatternError(f"region {name!r} already allocated")
        if rows < 1 or cols < 1:
            raise PatternError(f"region {name!r}: shape must be positive")
        p, q = self.memory.p, self.memory.q
        rows_a = self._align(rows, p)
        cols_a = self._align(cols, q)
        if cols_a > self.memory.cols:
            raise CapacityError(
                f"region {name!r} is wider ({cols}) than the memory "
                f"({self.memory.cols})"
            )
        if self._cursor_j + cols_a > self.memory.cols:
            # open a new shelf
            self._shelf_i += self._shelf_h
            self._shelf_h = 0
            self._cursor_j = 0
        if self._shelf_i + rows_a > self.memory.rows:
            raise CapacityError(
                f"PolyMem exhausted: cannot place region {name!r} "
                f"({rows}x{cols})"
            )
        region = Region(
            name=name,
            origin_i=self._shelf_i,
            origin_j=self._cursor_j,
            rows=rows_a,
            cols=cols_a,
            memory=self.memory,
        )
        self._cursor_j += cols_a
        self._shelf_h = max(self._shelf_h, rows_a)
        self.regions[name] = region
        return region

    def __getitem__(self, name: str) -> Region:
        return self.regions[name]

    def __contains__(self, name: str) -> bool:
        return name in self.regions

    def overlaps(self) -> list[tuple[str, str]]:
        """Sanity check: pairs of overlapping regions (always empty)."""
        out = []
        items = list(self.regions.values())
        for a in range(len(items)):
            for b in range(a + 1, len(items)):
                r1, r2 = items[a], items[b]
                if (
                    r1.origin_i < r2.origin_i + r2.rows
                    and r2.origin_i < r1.origin_i + r1.rows
                    and r1.origin_j < r2.origin_j + r2.cols
                    and r2.origin_j < r1.origin_j + r1.cols
                ):
                    out.append((r1.name, r2.name))
        return out
