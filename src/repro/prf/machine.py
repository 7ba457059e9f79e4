"""A small vector ISA over the Polymorphic Register File.

The PRF was built for SIMD co-processors (§II-A); this module provides the
minimal instruction set that exercises the PRF's value proposition —
element-wise vector arithmetic over arbitrarily shaped 2-D registers, all
operand traffic flowing as PolyMem parallel accesses:

========== ================================ =======================
mnemonic   semantics                        cycle model
========== ================================ =======================
``vadd``   Rd = Ra + Rb                     ``ceil(n/lanes)`` (dual read
``vsub``   Rd = Ra - Rb                      ports stream both operands)
``vmul``   Rd = Ra * Rb
``vaxpy``  Rd = s*Ra + Rb
``vscale`` Rd = s * Ra                      ``ceil(n/lanes)``
``vdot``   scalar = sum(Ra * Rb)            ``ceil(n/lanes) + log2(lanes)``
``vsum``   scalar = sum(Ra)                 ``ceil(n/lanes) + log2(lanes)``
========== ================================ =======================

One parallel access per lane-vector per port per cycle; the destination
write overlaps the reads on the independent write port (the paper's
concurrent read/write claim), so element-wise ops cost exactly the read
streaming.  Two-operand instructions require two read ports when they are
to stream at full rate; with one port the cycle model doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..core.exceptions import PatternError, PortError
from ..core.patterns import PatternKind
from ..program import AccessProgram
from ..program.builder import build
from .registers import RegisterFile, VectorRegister, _bits, _floats

__all__ = ["ExecutionStats", "PrfMachine"]


@dataclass
class ExecutionStats:
    """Cycle/instruction accounting for a program."""

    instructions: int = 0
    cycles: int = 0
    elements: int = 0
    log: list[str] = field(default_factory=list)

    def record(self, mnemonic: str, cycles: int, elements: int) -> None:
        self.instructions += 1
        self.cycles += cycles
        self.elements += elements
        self.log.append(f"{mnemonic}: {cycles} cycles")


class PrfMachine:
    """Executes vector instructions against a :class:`RegisterFile`."""

    def __init__(self, rf: RegisterFile | None = None, read_ports: int = 2):
        self.rf = rf or RegisterFile()
        if read_ports < 1:
            raise PortError("need at least one read port")
        self.read_ports = read_ports
        self.stats = ExecutionStats()

    # -- cycle model -------------------------------------------------------
    def _stream_cycles(self, elements: int, operands: int) -> int:
        vectors = -(-elements // self.rf.lanes)
        passes = -(-operands // self.read_ports)
        return vectors * passes

    def _reduce_tail(self) -> int:
        return max(1, int(math.ceil(math.log2(self.rf.lanes))))

    # -- operand plumbing -----------------------------------------------------
    def _reg(self, name: str) -> VectorRegister:
        return self.rf[name]

    def _check_same_shape(self, *regs: VectorRegister) -> None:
        shapes = {r.shape for r in regs}
        if len(shapes) != 1:
            raise PatternError(
                f"shape mismatch: {[f'{r.name}{r.shape}' for r in regs]}"
            )

    def _lower_operands(self, *regs: VectorRegister) -> AccessProgram:
        """Lower operand streaming to an access program.

        With enough physical read ports (and equal-length streams) every
        operand gets its own port of a *single* trace (``fuse=True``) —
        the concurrent dual-port streaming the cycle model charges for;
        otherwise the operands stream sequentially on port 0 (the
        compiler concatenates them into one equivalent replay).
        """
        mem = self.rf.memory
        grids = [r.region.anchor_grid() for r in regs]
        ports = min(self.read_ports, mem.read_ports)
        lengths = {ai.size for ai, _ in grids}
        parallel = len(regs) > 1 and ports >= len(regs) and len(lengths) == 1
        prog = AccessProgram("prf_operands")
        for k, (ai, aj) in enumerate(grids):
            prog.read(
                PatternKind.RECTANGLE,
                ai,
                aj,
                port=k if parallel else 0,
                tag=f"op{k}",
                fuse=parallel and k > 0,
            )
        return prog

    def _lower_store(self, reg: VectorRegister, values: np.ndarray) -> AccessProgram:
        """Lower a result store into *reg* as one replayed write trace."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != reg.shape:
            raise PatternError(
                f"register {reg.name!r} expects {reg.shape}, got {values.shape}"
            )
        frame = np.zeros(reg.region.shape, dtype=np.uint64)
        frame[: reg.rows, : reg.cols] = _bits(values).reshape(reg.shape)
        anchors_i, anchors_j = reg.region.anchor_grid()
        return AccessProgram(f"prf_store_{reg.name}").write(
            PatternKind.RECTANGLE,
            anchors_i,
            anchors_j,
            values=reg.region.to_blocks(frame),
        )

    def _load_operands(self, *regs: VectorRegister) -> list[np.ndarray]:
        """Stream operand registers out of the PRF via the program engine."""
        res = build("prf.operands", machine=self, regs=regs).run()
        out = []
        for k, reg in enumerate(regs):
            frame = reg.region.from_blocks(res[f"op{k}"])
            out.append(
                _floats(frame[: reg.rows, : reg.cols].ravel()).reshape(reg.shape)
            )
        return out

    def _store_result(self, reg: VectorRegister, values: np.ndarray) -> None:
        """Stream a result into *reg* as one replayed write trace."""
        build("prf.store", machine=self, reg=reg, values=values).run()

    def _binary(self, mnemonic, dst, a, b, fn) -> None:
        ra, rb, rd = self._reg(a), self._reg(b), self._reg(dst)
        self._check_same_shape(ra, rb, rd)
        va, vb = self._load_operands(ra, rb)
        self._store_result(rd, fn(va, vb))
        self.stats.record(
            mnemonic, self._stream_cycles(rd.elements, 2), rd.elements
        )

    def _unary(self, mnemonic, dst, a, fn) -> None:
        ra, rd = self._reg(a), self._reg(dst)
        self._check_same_shape(ra, rd)
        (va,) = self._load_operands(ra)
        self._store_result(rd, fn(va))
        self.stats.record(
            mnemonic, self._stream_cycles(rd.elements, 1), rd.elements
        )

    # -- instructions -------------------------------------------------------
    def vadd(self, dst: str, a: str, b: str) -> None:
        """Rd = Ra + Rb (element-wise)."""
        self._binary("vadd", dst, a, b, lambda x, y: x + y)

    def vsub(self, dst: str, a: str, b: str) -> None:
        """Rd = Ra - Rb."""
        self._binary("vsub", dst, a, b, lambda x, y: x - y)

    def vmul(self, dst: str, a: str, b: str) -> None:
        """Rd = Ra * Rb (element-wise)."""
        self._binary("vmul", dst, a, b, lambda x, y: x * y)

    def vaxpy(self, dst: str, s: float, a: str, b: str) -> None:
        """Rd = s * Ra + Rb."""
        self._binary("vaxpy", dst, a, b, lambda x, y: s * x + y)

    def vscale(self, dst: str, s: float, a: str) -> None:
        """Rd = s * Ra."""
        self._unary("vscale", dst, a, lambda x: s * x)

    def vcopy(self, dst: str, a: str) -> None:
        """Rd = Ra."""
        self._unary("vcopy", dst, a, lambda x: x.copy())

    def vdot(self, a: str, b: str) -> float:
        """sum(Ra * Rb) — streams both operands, then a lane-tree reduce."""
        ra, rb = self._reg(a), self._reg(b)
        self._check_same_shape(ra, rb)
        va, vb = self._load_operands(ra, rb)
        value = float(np.dot(va.ravel(), vb.ravel()))
        cycles = self._stream_cycles(ra.elements, 2) + self._reduce_tail()
        self.stats.record("vdot", cycles, ra.elements)
        return value

    def vsum(self, a: str) -> float:
        """sum(Ra)."""
        ra = self._reg(a)
        (va,) = self._load_operands(ra)
        value = float(va.sum())
        cycles = self._stream_cycles(ra.elements, 1) + self._reduce_tail()
        self.stats.record("vsum", cycles, ra.elements)
        return value

    def vmv(self, dst: str, mat: str, vec: str) -> None:
        """Rd = Rmat @ Rvec — matrix register times vector register.

        ``Rmat`` is ``m x n``; ``Rvec`` holds ``n`` elements (any shape);
        ``Rd`` holds ``m`` elements.  Cycle model: the vector streams once
        and stays lane-resident, each matrix row streams on the second
        port, every row ends with a lane-tree reduction —
        ``ceil(n/lanes) + m * (ceil(n/lanes) + log2(lanes))``.
        """
        rm, rv, rd = self._reg(mat), self._reg(vec), self._reg(dst)
        m, n = rm.shape
        if rv.elements != n:
            raise PatternError(
                f"vmv: {mat}{rm.shape} needs a {n}-element vector, "
                f"{vec} holds {rv.elements}"
            )
        if rd.elements != m:
            raise PatternError(
                f"vmv: destination {dst} holds {rd.elements} elements, "
                f"needs {m}"
            )
        vm, vv = self._load_operands(rm, rv)
        result = vm @ vv.ravel()
        self._store_result(rd, result.reshape(rd.shape))
        row_vectors = -(-n // self.rf.lanes)
        cycles = row_vectors + m * (row_vectors + self._reduce_tail())
        self.stats.record("vmv", cycles, (m + 1) * n)
