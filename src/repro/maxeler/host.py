"""Host-side orchestration: blocking calls and wall-clock accounting.

The paper's measurement methodology (§V) runs each stage through *blocking*
host calls, so stage boundaries are clean and each call pays the ~300 ns
PCIe signalling overhead.  :class:`Host` mirrors that: every interaction
with the DFE advances a simulated wall clock by PCIe overhead + payload
time + on-chip execution time, and a per-stage ledger records where the
time went.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from ..core.exceptions import SimulationError
from ..telemetry import context as _telemetry
from .dfe import DFE

__all__ = ["Host", "StageTiming"]


@dataclass
class StageTiming:
    """Wall-clock breakdown of one named stage."""

    name: str
    calls: int = 0
    pcie_ns: float = 0.0
    compute_ns: float = 0.0
    payload_bytes: int = 0

    @property
    def total_ns(self) -> float:
        return self.pcie_ns + self.compute_ns


class Host:
    """The CPU side of Fig. 1, driving a DFE through blocking calls."""

    def __init__(self, dfe: DFE):
        self.dfe = dfe
        self.clock_ns = 0.0
        self.stages: dict[str, StageTiming] = {}
        self._stage = self._get_stage("default")

    # -- stage bookkeeping ---------------------------------------------------
    def _get_stage(self, name: str) -> StageTiming:
        if name not in self.stages:
            self.stages[name] = StageTiming(name)
        return self.stages[name]

    def begin_stage(self, name: str) -> StageTiming:
        """Start attributing time to stage *name* (stages never overlap —
        the paper's blocking-call separation)."""
        self._stage = self._get_stage(name)
        return self._stage

    def stage(self, name: str) -> StageTiming:
        """The ledger entry for stage *name*."""
        if name not in self.stages:
            raise SimulationError(f"unknown stage {name!r}")
        return self.stages[name]

    def _charge_pcie(self, payload_bytes: int, calls: int = 1) -> None:
        link = self.dfe.board.pcie
        ns = calls * link.call_overhead_ns + payload_bytes / link.bandwidth_gbps
        t0 = self.clock_ns
        self.clock_ns += ns
        self._stage.calls += calls
        self._stage.pcie_ns += ns
        self._stage.payload_bytes += payload_bytes
        tel = _telemetry.active()
        if tel is not None:
            m = tel.metrics
            m.counter("pcie.calls").inc(calls)
            m.counter("pcie.payload_bytes").inc(payload_bytes)
            m.counter("pcie.overhead_ns").inc(calls * link.call_overhead_ns)
            m.counter("pcie.ns").inc(ns)
            if tel.tracer is not None:
                tel.tracer.complete_ns(
                    "pcie.transfer", t0, ns, cat="pcie",
                    payload_bytes=payload_bytes, calls=calls,
                )

    def _charge_compute(self, cycles: int) -> None:
        ns = self.dfe.cycles_to_ns(cycles)
        t0 = self.clock_ns
        self.clock_ns += ns
        self._stage.compute_ns += ns
        tel = _telemetry.active()
        if tel is not None and tel.tracer is not None:
            tel.tracer.complete_ns(
                "kernel.compute", t0, ns, cat="kernel", cycles=cycles
            )

    # -- telemetry ----------------------------------------------------------
    def _host_call(self, name: str, **args):
        """Span one blocking call on both tracks: real wall time via the
        tracer stack, simulated time (the ledger's clock_ns interval) as an
        explicit complete event.  A plain context manager when telemetry is
        off."""
        return _HostCallScope(self, name, args)

    # -- blocking calls -----------------------------------------------------
    @staticmethod
    def _payload_bytes(values: list[Any]) -> int:
        """Wire size of a transfer: array elements carry their real byte
        count (wide lane vectors), anything else is one 64-bit word."""
        return int(sum(getattr(value, "nbytes", 8) for value in values))

    def write_stream(self, name: str, values: Iterable[Any]) -> int:
        """Blocking host->DFE transfer into input stream *name*.

        Returns the element count.
        """
        with self._host_call("write_stream", stream=name):
            values = list(values)
            self.dfe.manager.host_input(name).push_many(values)
            self._charge_pcie(payload_bytes=self._payload_bytes(values))
        return len(values)

    def read_stream(self, name: str) -> list[Any]:
        """Blocking DFE->host drain of output stream *name*."""
        with self._host_call("read_stream", stream=name):
            values = self.dfe.manager.host_output(name).drain()
            self._charge_pcie(payload_bytes=self._payload_bytes(values))
        return values

    def signal(self) -> None:
        """A payload-free control call (mode/size scalars)."""
        with self._host_call("signal"):
            self._charge_pcie(payload_bytes=0)

    def run_kernel(self, until=None, max_cycles=None):
        """Blocking kernel execution: runs the on-chip simulation and
        advances the wall clock by the consumed cycles plus one call
        overhead."""
        with self._host_call("run_kernel"):
            before = self.dfe.simulator.cycles
            result = self.dfe.simulator.run(until=until, max_cycles=max_cycles)
            self._charge_pcie(payload_bytes=0)
            self._charge_compute(result.cycles - before)
        return result


class _HostCallScope:
    """Wall-clock span plus simulated-time interval for one host call."""

    __slots__ = ("host", "name", "args", "tracer", "t0_sim")

    def __init__(self, host: Host, name: str, args: dict):
        self.host = host
        self.name = name
        self.args = args
        tel = _telemetry.active()
        self.tracer = tel.tracer if tel is not None else None
        self.t0_sim = 0.0

    def __enter__(self) -> "_HostCallScope":
        if self.tracer is not None:
            self.t0_sim = self.host.clock_ns
            self.tracer.begin(f"host.{self.name}", cat="host", **self.args)
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if self.tracer is None:
            return
        if exc_type is not None:
            self.tracer.end(aborted=True)
            return
        self.tracer.end()
        self.tracer.complete_ns(
            f"host.{self.name}",
            self.t0_sim,
            self.host.clock_ns - self.t0_sim,
            cat="host",
            **self.args,
        )
