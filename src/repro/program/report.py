"""Kernel-style cycle accounting, shared by every program execution.

The execution engine is the one place producing :class:`KernelReport`
(through :class:`CycleScope`); the application kernels import it from
here.  :class:`KernelReport` normalizes the accounting: parallel-access
cycles consumed, elements touched, and the speedup over a scalar
(one-element-per-cycle) memory — the metric family of the paper's §III-A.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.polymem import PolyMem

__all__ = ["KernelReport", "CycleScope"]


@dataclass(frozen=True)
class KernelReport:
    """Cycle accounting of one kernel execution."""

    kernel: str
    cycles: int
    elements_accessed: int
    result_elements: int

    @property
    def speedup_vs_scalar(self) -> float:
        """Parallel cycles vs one element per cycle for the same traffic."""
        return self.elements_accessed / self.cycles if self.cycles else 0.0

    @property
    def lane_efficiency(self) -> float:
        """Fraction of lane slots carrying useful elements — needs the lane
        count, so it is provided by :class:`CycleScope`."""
        return getattr(self, "_efficiency", float("nan"))


class CycleScope:
    """Context manager that captures a PolyMem's cycle/element deltas.

    >>> # with CycleScope(pm, "kernel") as scope: ... scope.report()
    """

    def __init__(self, memory: PolyMem, kernel: str, *extra: PolyMem):
        self.memories = (memory, *extra)
        self.kernel = kernel
        self._start_cycles = [0] * len(self.memories)
        self._start_elems = [0] * len(self.memories)

    def __enter__(self) -> "CycleScope":
        for k, mem in enumerate(self.memories):
            self._start_cycles[k] = mem.cycles
            self._start_elems[k] = self._elements(mem)
        return self

    def __exit__(self, *exc) -> None:
        return None

    @staticmethod
    def _elements(mem: PolyMem) -> int:
        return mem.write_stats.elements + sum(
            s.elements for s in mem.read_stats
        )

    def report(self, result_elements: int = 0) -> KernelReport:
        """The accounting since scope entry."""
        cycles = sum(
            mem.cycles - start
            for mem, start in zip(self.memories, self._start_cycles)
        )
        elements = sum(
            self._elements(mem) - start
            for mem, start in zip(self.memories, self._start_elems)
        )
        return KernelReport(
            kernel=self.kernel,
            cycles=cycles,
            elements_accessed=elements,
            result_elements=result_elements,
        )
