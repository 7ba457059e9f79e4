"""The STREAM measurement harness: Load / compute / Offload (paper §V).

Two measurement paths exist, matching DESIGN.md's conventions:

* :meth:`StreamHarness.run` — drives the full Fig. 9 dataflow design
  cycle-accurately: jobs stream to the Controller, data round-trips
  through the MUX/PolyMem/DEMUX, and per-run cycles come from the tick
  simulator.  Exact, used for correctness tests and small/medium sizes.
* :meth:`StreamHarness.measure_analytic` — the closed-form cycle count
  validated against the simulator (``tests/stream_bench``):
  ``cycles_per_run = vectors + read_latency + pipeline_slack``.  Used to
  sweep Fig. 10 quickly and to extrapolate to 1000-run batches.

Timing follows the paper's methodology: every stage is a sequence of
blocking host calls (each charged the ~300 ns PCIe overhead), the compute
stage is repeated ``runs`` times (the paper uses 1000), and only the
compute stage's wall clock enters the bandwidth figure.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from ..core.exceptions import SimulationError
from ..hw.calibration import STREAM_COPY
from ..maxeler.conditions import StreamFill
from ..telemetry import context as _telemetry
from .apps import DEFAULT_SCALAR, StreamApp
from .controller import Job, JobsDone, Mode, StreamDesign, build_stream_design

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


class StreamHarness:
    """Orchestrates Load / compute / Offload over a Fig. 9 design."""

    def __init__(self, design: StreamDesign | None = None):
        self.design = design or build_stream_design()
        self.host = self.design.host()

    @property
    def lanes(self) -> int:
        return self.design.config.lanes

    @property
    def max_vectors(self) -> int:
        """Lane-vectors per array band (the paper's 170 x 512 limit)."""
        return self.design.controller.band_capacity_vectors()

    # -- stage drivers -----------------------------------------------------
    def load_arrays(self, vectors: int, seed: int = 42) -> dict[str, np.ndarray]:
        """Stage 1 (Load): stream A, B, C into their PolyMem bands.

        Returns the float64 reference arrays keyed ``"a"``, ``"b"``, ``"c"``.
        """
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
                self.host.write_stream(f"{key}_in", list(bits))
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
        ctrl = self.design.controller
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
        return np.concatenate([np.asarray(r) for r in rows]).view(np.float64)

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
        return StreamMeasurement(
            app_name=app.name,
            elements=vectors * self.lanes,
            runs=runs,
            cycles_per_run=cycles,
            clock_mhz=self.design.dfe.clock_mhz,
            host_overhead_ns=self.design.dfe.board.pcie.call_overhead_ns,
            bytes_per_element=app.bytes_per_element,
            lanes=self.lanes,
        ).record_telemetry()

    def measure_analytic(
        self, app: StreamApp, vectors: int, runs: int = 1000
    ) -> StreamMeasurement:
        """Closed-form measurement (no simulation): the validated cycle
        model ``vectors + read_latency + slack``."""
        cycles = vectors + self.design.read_latency + PIPELINE_SLACK_CYCLES
        return StreamMeasurement(
            app_name=app.name,
            elements=vectors * self.lanes,
            runs=runs,
            cycles_per_run=cycles,
            clock_mhz=self.design.dfe.clock_mhz,
            host_overhead_ns=self.design.dfe.board.pcie.call_overhead_ns,
            bytes_per_element=app.bytes_per_element,
            lanes=self.lanes,
        ).record_telemetry()


@dataclass(frozen=True)
class Fig10Point:
    """One point of the Fig. 10 series."""

    copied_kb: float
    mbps: float
    efficiency: float


def fig10_point(
    _config,
    vectors: int,
    runs: int,
    lanes: int,
    read_latency: int,
    clock_mhz: float,
    overhead_ns: float,
    bytes_per_element: int,
) -> dict:
    """One closed-form Fig. 10 point as a plain-JSON payload.

    The :class:`~repro.exec.SweepTask` function of the Fig. 10 size sweep
    (the design is reduced to the five scalars the analytic cycle model
    needs, which also form the point's cache identity).
    """
    cycles = vectors + read_latency + PIPELINE_SLACK_CYCLES
    m = StreamMeasurement(
        app_name="Copy",
        elements=vectors * lanes,
        runs=runs,
        cycles_per_run=cycles,
        clock_mhz=clock_mhz,
        host_overhead_ns=overhead_ns,
        bytes_per_element=bytes_per_element,
        lanes=lanes,
    )
    return {
        "copied_kb": vectors * lanes * 8 / 1024,
        "mbps": m.mbps,
        "efficiency": m.efficiency,
    }


def sweep_fig10(
    sizes_kb: list[float] | None = None,
    runs: int = STREAM_COPY.runs,
    harness: StreamHarness | None = None,
    cache=None,
) -> list[Fig10Point]:
    """Regenerate Fig. 10: Copy bandwidth vs copied data size.

    Uses the validated analytic cycle model (the full-size cycle-accurate
    run is covered by the integration tests), executed as one
    :func:`repro.exec.run_sweep` grid so the CLI's ``--cache-dir`` /
    ``--no-cache`` flags apply here too.
    """
    from ..exec import SweepTask, run_sweep
    from .apps import COPY

    harness = harness or StreamHarness()
    lanes = harness.lanes
    if sizes_kb is None:
        max_kb = harness.max_vectors * lanes * 8 / 1024
        sizes_kb = [max_kb * f / 20 for f in range(1, 21)]
    design = harness.design
    tasks = []
    for kb in sizes_kb:
        vectors = max(1, int(round(kb * 1024 / 8 / lanes)))
        vectors = min(vectors, harness.max_vectors)
        tasks.append(
            SweepTask(
                "stream.fig10",
                fig10_point,
                params={
                    "vectors": vectors,
                    "runs": runs,
                    "lanes": lanes,
                    "read_latency": design.read_latency,
                    "clock_mhz": design.dfe.clock_mhz,
                    "overhead_ns": design.dfe.board.pcie.call_overhead_ns,
                    "bytes_per_element": COPY.bytes_per_element,
                },
            )
        )
    sweep = run_sweep(tasks, cache=cache)
    return [Fig10Point(**v) for v in sweep.values()]
