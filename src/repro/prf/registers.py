"""The Polymorphic Register File view of a PolyMem (paper §II-A).

The PRF that PolyMem descends from is *"a parameterizable register file,
which can be logically reorganized by the programmer or a runtime system
to support multiple register dimensions and sizes simultaneously"*.  This
module provides that view: named 2-D vector registers of arbitrary shapes
defined over one PolyMem, resizable and releasable at runtime (the
polymorphism), with the storage managed by the Fig. 2 region allocator.

Registers carry float64 data (bit-cast into the 64-bit banks), matching
the SIMD-processor context the PRF was designed for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.config import PolyMemConfig
from ..core.exceptions import PatternError
from ..core.polymem import PolyMem
from ..core.regions import Region, RegionMap
from ..core.schemes import Scheme

__all__ = ["VectorRegister", "RegisterFile"]


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


def _floats(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.uint64).view(np.float64)


@dataclass
class VectorRegister:
    """A named 2-D register: a shaped window over the PRF storage."""

    name: str
    rows: int
    cols: int
    region: Region

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def elements(self) -> int:
        return self.rows * self.cols

    def store(self, values: np.ndarray) -> None:
        """Host -> register (bulk; kernel cycles are counted by the ISA)."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != self.shape:
            raise PatternError(
                f"register {self.name!r} expects {self.shape}, got {values.shape}"
            )
        frame = np.zeros(self.region.shape, dtype=np.uint64)
        frame[: self.rows, : self.cols] = _bits(values).reshape(self.shape)
        self.region.store(frame)

    def load(self) -> np.ndarray:
        """Register -> host."""
        frame = self.region.load()
        return _floats(frame[: self.rows, : self.cols].ravel()).reshape(self.shape)


class RegisterFile:
    """A runtime-reorganizable set of 2-D registers over one PolyMem.

    >>> rf = RegisterFile(capacity_kb=4)
    >>> r0 = rf.define("R0", 4, 8)     # a 4x8 matrix register
    >>> r1 = rf.define("R1", 1, 32)    # a vector register
    >>> r1 = rf.resize("R1", 2, 16)    # the polymorphism: reshape at runtime
    >>> (r1.rows, r1.cols)
    (2, 16)
    """

    def __init__(
        self,
        capacity_kb: int = 4,
        p: int = 2,
        q: int = 4,
        scheme: Scheme = Scheme.RoCo,
        rows: int = 0,
        cols: int = 0,
    ):
        if rows and cols:
            capacity = rows * cols * 8
        else:
            capacity = capacity_kb * 1024
        self.memory = PolyMem(
            PolyMemConfig(capacity, p=p, q=q, scheme=scheme, rows=rows, cols=cols)
        )
        self._regions = RegionMap(self.memory)
        self.registers: dict[str, VectorRegister] = {}

    @property
    def lanes(self) -> int:
        return self.memory.lanes

    def define(self, name: str, rows: int, cols: int) -> VectorRegister:
        """Create a register of logical shape rows x cols."""
        if name in self.registers:
            raise PatternError(f"register {name!r} already defined")
        region = self._regions.allocate(name, rows, cols)
        reg = VectorRegister(name=name, rows=rows, cols=cols, region=region)
        self.registers[name] = reg
        return reg

    def resize(self, name: str, rows: int, cols: int) -> VectorRegister:
        """Reshape a register at runtime, preserving data row-major up to
        the smaller element count (the PRF's §II-A polymorphism)."""
        old = self.registers.get(name)
        if old is None:
            raise PatternError(f"register {name!r} is not defined")
        data = old.load().ravel()
        self.release(name)
        new = self.define(name, rows, cols)
        keep = min(data.size, new.elements)
        fresh = np.zeros(new.elements)
        fresh[:keep] = data[:keep]
        new.store(fresh.reshape(new.shape))
        return new

    def release(self, name: str) -> None:
        """Free a register's storage."""
        if name not in self.registers:
            raise PatternError(f"register {name!r} is not defined")
        del self.registers[name]
        self._regions.free(name)

    def __getitem__(self, name: str) -> VectorRegister:
        reg = self.registers.get(name)
        if reg is None:
            raise PatternError(f"register {name!r} is not defined")
        return reg

    def __contains__(self, name: str) -> bool:
        return name in self.registers
