"""The STREAM measurement harness: Load / compute / Offload (paper §V).

Two measurement paths exist, matching DESIGN.md's conventions:

* :meth:`StreamHarness.run` — drives the full Fig. 9 dataflow design
  cycle-accurately: jobs stream to the Controller, data round-trips
  through the MUX/PolyMem/DEMUX, and per-run cycles come from the tick
  simulator.  Exact, used for correctness tests and small/medium sizes.
  The design is built on the first stage-driver call.
* :meth:`StreamHarness.measure_analytic` — the closed-form cycle count
  validated against the simulator (``tests/stream_bench``):
  ``cycles_per_run = vectors + read_latency + pipeline_slack``.  Used to
  sweep Fig. 10 (:func:`sweep_fig10`) and to extrapolate to 1000-run
  batches.  It needs no design and builds none: a harness made without
  one reads its five numbers from
  :data:`~repro.hw.calibration.STREAM_COPY`, the same record
  :func:`~repro.stream_bench.controller.build_stream_design` takes its
  defaults from, so it loads no simulator.

Timing follows the paper's methodology: every stage is a sequence of
blocking host calls (each charged the ~300 ns PCIe overhead), the compute
stage is repeated ``runs`` times (the paper uses 1000), and only the
compute stage's wall clock enters the bandwidth figure.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from ..core.exceptions import SimulationError
from ..hw.calibration import STREAM_COPY
from ..telemetry import context as _telemetry
from .apps import COPY, DEFAULT_SCALAR, Mode, StreamApp

if TYPE_CHECKING:
    from .controller import StreamDesign

__all__ = ["StreamMeasurement", "StreamHarness", "Fig10Point", "sweep_fig10"]

#: extra cycles per run beyond ``vectors + read_latency``: command issue and
#: the MUX/feedback hop of the last element (exactly 2 in the tick
#: simulator, for every app and every size — see tests/stream_bench)
PIPELINE_SLACK_CYCLES = 2

#: reusable no-op context for telemetry-off stage scopes
_NULL = nullcontext()


@dataclass(frozen=True)
class StreamMeasurement:
    """One measured STREAM kernel execution."""

    app_name: str
    elements: int
    runs: int
    cycles_per_run: float
    clock_mhz: float
    host_overhead_ns: float
    bytes_per_element: int
    lanes: int

    @property
    def seconds_per_run(self) -> float:
        """Wall time of one blocking run: PCIe overhead + kernel time."""
        return self.host_overhead_ns * 1e-9 + self.cycles_per_run / (
            self.clock_mhz * 1e6
        )

    @property
    def total_seconds(self) -> float:
        return self.runs * self.seconds_per_run

    @property
    def bytes_per_run(self) -> int:
        return self.elements * self.bytes_per_element

    @property
    def mbps(self) -> float:
        """STREAM-style rate: MB/s (1 MB = 1e6 bytes, STREAM convention)."""
        return self.bytes_per_run / self.seconds_per_run / 1e6

    @property
    def ports_used(self) -> int:
        """Ports active per element: reads + the write."""
        return self.bytes_per_element // 8

    @property
    def peak_mbps(self) -> float:
        """Theoretical peak in MB/s: ``ports x lanes x 8 B x f`` — the
        paper's 2 x 8 x 8 x 120 = 15,360 MB/s for Copy."""
        return self.ports_used * self.lanes * 8 * self.clock_mhz

    @property
    def efficiency(self) -> float:
        """Measured / peak (the paper's >99% headline at 700 KB)."""
        return self.mbps / self.peak_mbps

    def record_telemetry(self) -> "StreamMeasurement":
        """Publish achieved/peak bandwidth into the active telemetry
        session (no-op when telemetry is off); returns self for chaining."""
        tel = _telemetry.active()
        if tel is not None:
            m = tel.metrics
            m.gauge("stream.achieved_mbps").set(self.mbps)
            m.gauge("stream.peak_mbps").set(self.peak_mbps)
            m.gauge("stream.efficiency").set(self.efficiency)
            m.counter("stream.measurements").inc()
        return self


@dataclass(frozen=True)
class _ClosedForm:
    """The five numbers the closed-form cycle model reads."""

    lanes: int
    #: lane-vectors per array band (the paper's 170 x 512 limit)
    band_vectors: int
    read_latency: int
    clock_mhz: float
    call_overhead_ns: float

    @classmethod
    def of(cls, design: StreamDesign | None) -> "_ClosedForm":
        """*design*'s record, or the paper's (``STREAM_COPY``) for None."""
        if design is None:
            ref = STREAM_COPY
            lanes = ref.p * ref.q
            return cls(
                lanes=lanes,
                band_vectors=ref.max_array_rows * (ref.array_cols // lanes),
                read_latency=ref.read_latency_cycles,
                clock_mhz=ref.clock_mhz,
                call_overhead_ns=ref.host_call_overhead_ns,
            )
        return cls(
            lanes=design.config.lanes,
            band_vectors=design.controller.band_capacity_vectors(),
            read_latency=design.read_latency,
            clock_mhz=design.dfe.clock_mhz,
            call_overhead_ns=design.dfe.board.pcie.call_overhead_ns,
        )


class StreamHarness:
    """Orchestrates Load / compute / Offload over a Fig. 9 design.

    Without a *design*, the default Fig. 9 design is built on the first
    stage-driver call; the closed form never builds it.
    """

    def __init__(self, design: StreamDesign | None = None):
        if design is not None:
            self.design = design
        self.closed_form = _ClosedForm.of(design)

    @cached_property
    def design(self) -> StreamDesign:
        from .controller import build_stream_design

        return build_stream_design()

    @cached_property
    def host(self):
        return self.design.host()

    @property
    def lanes(self) -> int:
        return self.closed_form.lanes

    @property
    def max_vectors(self) -> int:
        """Lane-vectors per array band (the paper's 170 x 512 limit)."""
        return self.closed_form.band_vectors

    # -- stage drivers -----------------------------------------------------
    def load_arrays(self, vectors: int, seed: int = 42) -> dict[str, np.ndarray]:
        """Stage 1 (Load): stream A, B, C into their PolyMem bands.

        Returns the float64 reference arrays keyed ``"a"``, ``"b"``, ``"c"``.
        """
        from .controller import Job, JobsDone

        if vectors > self.max_vectors:
            raise SimulationError(
                f"{vectors} vectors exceed the {self.max_vectors}-vector band"
            )
        rng = np.random.default_rng(seed)
        n = vectors * self.lanes
        arrays = {
            "a": rng.uniform(1.0, 2.0, n),
            "b": rng.uniform(1.0, 2.0, n),
            "c": rng.uniform(1.0, 2.0, n),
        }
        self.host.begin_stage("load")
        ctrl = self.design.controller
        tel = _telemetry.active()
        with tel.span("stage.load", cat="stream", vectors=vectors) if tel else _NULL:
            for idx, key in enumerate("abc"):
                bits = arrays[key].view(np.uint64).reshape(vectors, self.lanes)
                self.host.write_stream(f"{key}_in", bits)
                self.host.write_stream("job", [Job(Mode.LOAD, vectors, array=idx)])
                self.host.run_kernel(
                    until=JobsDone(ctrl, ctrl.completed_jobs + 1),
                    max_cycles=20 * vectors + 10_000,
                )
        return arrays

    def run_app(self, app: StreamApp, vectors: int, scalar: float = DEFAULT_SCALAR) -> int:
        """Stage 2 (compute): run *app* once, cycle-accurately.

        Returns the exact cycle count of the compute stage.
        """
        from .controller import Job, JobsDone

        if app.read_ports_needed > self.design.config.read_ports:
            raise SimulationError(
                f"{app.name} needs {app.read_ports_needed} read ports"
            )
        ctrl = self.design.controller
        self.host.begin_stage(app.name.lower())
        before = self.design.dfe.simulator.cycles
        tel = _telemetry.active()
        scope = (
            tel.span(f"stage.compute.{app.name}", cat="stream", vectors=vectors)
            if tel
            else _NULL
        )
        with scope:
            self.host.write_stream(
                "job", [Job(app.mode, vectors, scalar=scalar)]
            )
            self.host.run_kernel(
                until=JobsDone(ctrl, ctrl.completed_jobs + 1),
                max_cycles=30 * vectors + 100_000,
            )
        return self.design.dfe.simulator.cycles - before

    def offload_array(self, array_index: int, vectors: int) -> np.ndarray:
        """Stage 3 (Offload): stream one array band back to the host."""
        from ..maxeler.conditions import StreamFill
        from .controller import Job

        self.host.begin_stage("offload")
        out_name = f"{'abc'[array_index]}_out"
        out_stream = self.design.dfe.manager.host_output(out_name)
        tel = _telemetry.active()
        scope = (
            tel.span("stage.offload", cat="stream", vectors=vectors)
            if tel
            else _NULL
        )
        with scope:
            self.host.write_stream(
                "job", [Job(Mode.OFFLOAD, vectors, array=array_index)]
            )
            self.host.run_kernel(
                until=StreamFill(out_stream, vectors),
                max_cycles=30 * vectors + 100_000,
            )
            rows = self.host.read_stream(out_name)
        return rows.reshape(-1).view(np.float64)

    # -- end-to-end measurement ---------------------------------------------
    def run(
        self,
        app: StreamApp,
        vectors: int,
        runs: int = 1,
        scalar: float = DEFAULT_SCALAR,
        verify: bool = True,
    ) -> StreamMeasurement:
        """Full Load / compute(x1 measured, scaled to *runs*) / Offload.

        The compute stage is simulated once for the exact cycle count; the
        1000-run batching of the paper is a pure time multiplication (every
        run is identical — the simulator is deterministic).
        """
        arrays = self.load_arrays(vectors)
        cycles = self.run_app(app, vectors, scalar)
        if verify:
            got = self.offload_array(app.destination, vectors)
            want = app.expected(
                arrays["a"], arrays["b"], arrays["c"], scalar
            )
            if not np.allclose(got, want, rtol=1e-12):
                raise SimulationError(
                    f"{app.name}: offloaded data does not match the reference"
                )
        return self._measurement(app, vectors, runs, cycles).record_telemetry()

    def measure_analytic(
        self, app: StreamApp, vectors: int, runs: int = 1000
    ) -> StreamMeasurement:
        """Closed-form measurement (no simulation): the validated cycle
        model ``vectors + read_latency + slack``."""
        return self._analytic(app, vectors, runs).record_telemetry()

    def _analytic(
        self, app: StreamApp, vectors: int, runs: int
    ) -> StreamMeasurement:
        """The closed-form measurement, telemetry not recorded."""
        cycles = vectors + self.closed_form.read_latency + PIPELINE_SLACK_CYCLES
        return self._measurement(app, vectors, runs, cycles)

    def _measurement(
        self, app: StreamApp, vectors: int, runs: int, cycles: float
    ) -> StreamMeasurement:
        spec = self.closed_form
        return StreamMeasurement(
            app_name=app.name,
            elements=vectors * spec.lanes,
            runs=runs,
            cycles_per_run=cycles,
            clock_mhz=spec.clock_mhz,
            host_overhead_ns=spec.call_overhead_ns,
            bytes_per_element=app.bytes_per_element,
            lanes=spec.lanes,
        )


@dataclass(frozen=True)
class Fig10Point:
    """One point of the Fig. 10 series."""

    copied_kb: float
    mbps: float
    efficiency: float


def sweep_fig10(
    sizes_kb: list[float] | None = None,
    runs: int = STREAM_COPY.runs,
    harness: StreamHarness | None = None,
) -> list[Fig10Point]:
    """Regenerate Fig. 10: Copy bandwidth vs copied data size.

    Uses the validated analytic cycle model of
    :meth:`StreamHarness.measure_analytic` (the full-size cycle-accurate
    run is covered by the integration tests); each point is a few float
    operations, so no result cache is involved.
    """
    harness = harness or StreamHarness()
    lanes = harness.lanes
    if sizes_kb is None:
        max_kb = harness.max_vectors * lanes * 8 / 1024
        sizes_kb = [max_kb * f / 20 for f in range(1, 21)]
    points = []
    for kb in sizes_kb:
        vectors = max(1, int(round(kb * 1024 / 8 / lanes)))
        vectors = min(vectors, harness.max_vectors)
        m = harness._analytic(COPY, vectors, runs)
        points.append(Fig10Point(vectors * lanes * 8 / 1024, m.mbps, m.efficiency))
    return points
