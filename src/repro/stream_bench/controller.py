"""The Fig. 9 STREAM design: Controller + MUX + DEMUX + MAX-PolyMem.

The host sends the Controller *jobs* (the ``Vector Sizes`` and ``Mode``
signals of Fig. 9); the Controller generates PolyMem read/write commands,
drives the write-input MUX (host arrays A/B/C or the feedback loop from
PolyMem's read port) and the output DEMUX (A_OUT/B_OUT/C_OUT).

PolyMem is split into three equal row bands holding the STREAM arrays A, B
and C.  All transfers move lane-wide vectors (``p*q`` 64-bit words per
stream element), modeling the wide PCIe stream interfaces of the MaxJ
implementation.

Stage semantics (paper §V):

* ``LOAD``   — host vectors stream through the MUX into PolyMem rows;
* ``COPY``   — reads of A stream back through the feedback MUX input and
  are written to C, one parallel read + one parallel write per cycle, with
  the read latency (14 cycles) separating the streams;
* ``SCALE``/``SUM``/``TRIAD`` — the paper's future-work apps, using the
  second read port for the two-operand kernels;
* ``OFFLOAD`` — rows stream out through the DEMUX to the host.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import partial

import numpy as np

from ..core.config import PolyMemConfig
from ..core.exceptions import SimulationError
from ..core.patterns import PatternKind
from ..core.plan import AccessBlock
from ..hw.calibration import STREAM_COPY
from ..maxeler.batch import BatchOp, BatchPlan, PushClaim
from ..maxeler.conditions import RunCondition
from ..maxeler.dfe import DFE, VectisBoard
from ..maxeler.kernel import DemuxKernel, Kernel, MuxKernel
from ..maxeler.manager import Manager
from ..maxpolymem.kernel import FusedPolyMemKernel
from ..program import AccessProgram
from .apps import Mode

__all__ = [
    "Job",
    "JobsDone",
    "StreamController",
    "StreamDesign",
    "build_stream_design",
]


def _bound(current: int | None, new: int) -> int:
    return new if current is None else min(current, new)

#: MUX input indices (Fig. 9 left side)
MUX_A, MUX_B, MUX_C, MUX_FEEDBACK = 0, 1, 2, 3

#: DEMUX output indices (Fig. 9 right side)
DEMUX_A, DEMUX_B, DEMUX_C = 0, 1, 2

#: bit-exact float64 <-> uint64 views for the arithmetic kernels
def _as_bits(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _as_floats(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.uint64).view(np.float64)


@dataclass(frozen=True)
class Job:
    """One Mode transition sent by the host.

    ``array``: target array index (0=A, 1=B, 2=C) for LOAD/OFFLOAD.
    ``vectors``: number of lane-wide vectors to process.
    ``scalar``: the q constant of SCALE/TRIAD.
    """

    mode: Mode
    vectors: int
    array: int = 0
    scalar: float = 3.0


class StreamController(Kernel):
    """The Controller block of Fig. 9.

    Ports
    -----
    inputs:
        ``job`` (host), ``wr_data`` (from the MUX), ``rd_data0``/``rd_data1``
        (from PolyMem's read ports).
    outputs:
        ``mux_select``, ``demux_select``, ``demux_data``, ``feedback`` (to
        the MUX), ``wr_cmd``, ``rd_cmd0``/``rd_cmd1`` (to PolyMem).
    """

    #: pattern used for all STREAM accesses (rows, under the RoCo scheme)
    ACCESS = PatternKind.ROW

    def __init__(self, name: str, config: PolyMemConfig):
        super().__init__(name)
        self.config = config
        self.lanes = config.lanes
        if config.cols % self.lanes:
            raise SimulationError(
                "PolyMem columns must be a multiple of the lane count for "
                "row-streamed STREAM accesses"
            )
        #: rows per array band (A, B, C)
        self.band_rows = config.rows // 3
        if self.band_rows == 0:
            raise SimulationError("PolyMem too small to hold three arrays")
        self._jobs: deque[Job] = deque()
        self._job: Job | None = None
        self._reads_issued = 0
        self._writes_done = 0
        self._scalar_bits = 0.0
        self.completed_jobs = 0

    # -- address generation -------------------------------------------------
    #
    # All STREAM access generation flows through one lowering: each array
    # band is a ROW anchor stream (lane-vector k at row k // per_row,
    # column (k % per_row) * lanes); the scalar tick, the batched claims
    # and `_job_program` all take slices of it, and every command the
    # controller issues is one `AccessBlock` of such a slice.

    def _unchecked_anchors(
        self, array: int, start: int, n: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Anchors of lane-vectors ``start..start+n`` — no band bound."""
        per_row = self.config.cols // self.lanes
        ks = np.arange(start, start + n, dtype=np.int64)
        rows, slots = np.divmod(ks, per_row)
        return array * self.band_rows + rows, slots * self.lanes

    def _band_slice(self, array: int, start: int, n: int, values=None):
        """Commands for lane-vectors ``start..start+n`` of band *array*
        (writes: with their ``(n, lanes)`` *values*); raises once the
        slice leaves the band, like per-vector issue did."""
        if n and start + n > self.band_capacity_vectors():
            raise SimulationError(
                f"vector {start + n - 1} exceeds array band of "
                f"{self.band_rows} rows"
            )
        ai, aj = self._unchecked_anchors(array, start, n)
        return AccessBlock(self.ACCESS, ai, aj, values=values)

    def band_capacity_vectors(self) -> int:
        """Lane-vectors one array band can hold."""
        return self.band_rows * (self.config.cols // self.lanes)

    def _job_program(self, job: Job) -> AccessProgram:
        """Lower *job*'s full access stream to a describe-only program.

        LOAD is one write stream into the target band, OFFLOAD one read
        stream out of it; the compute modes read each source band on its
        own port (fused: one command per port per cycle) and write the
        destination band.  Out-of-band vectors are *not* rejected here —
        describe-only programs never execute, and issue-time slicing
        raises exactly where per-vector issue did.
        """
        prog = AccessProgram(
            f"stream_{job.mode.value}",
            metadata={"mode": job.mode.value, "vectors": job.vectors},
        )
        n = job.vectors

        def anchors(array):
            return self._unchecked_anchors(array, 0, n)

        if job.mode is Mode.LOAD:
            ai, aj = anchors(job.array)
            return prog.write(self.ACCESS, ai, aj)
        if job.mode is Mode.OFFLOAD:
            ai, aj = anchors(job.array)
            return prog.read(self.ACCESS, ai, aj, tag=f"band{job.array}")
        src_arrays, dst_array, _ = self._mode_spec(job)
        for port, array in enumerate(src_arrays):
            ai, aj = anchors(array)
            prog.read(
                self.ACCESS, ai, aj, port=port, tag=f"band{array}",
                fuse=port > 0,
            )
        ai, aj = anchors(dst_array)
        return prog.write(self.ACCESS, ai, aj)

    # -- execution ------------------------------------------------------------
    def _tick(self) -> bool:
        progressed = False
        job_in = self.inputs["job"]
        if self._job is None and job_in.can_pop():
            self._job = job_in.pop()
            self._reads_issued = 0
            self._writes_done = 0
            progressed = True
        if self._job is None:
            return progressed
        mode = self._job.mode
        if mode is Mode.LOAD:
            stepped = self._tick_load()
        elif mode is Mode.OFFLOAD:
            stepped = self._tick_offload()
        else:
            stepped = self._tick_feedback(*self._mode_spec(self._job))
        if stepped:
            progressed = True
        if self._job is not None and self._writes_done >= self._job.vectors:
            self._job = None
            self.completed_jobs += 1
            progressed = True
        return progressed

    @property
    def idle(self) -> bool:
        return self._job is None and not self._jobs

    # LOAD: select host array input on the MUX, write rows sequentially.
    def _tick_load(self) -> bool:
        job = self._job
        mux_sel = self.outputs["mux_select"]
        wr_data = self.inputs["wr_data"]
        wr_cmd = self.outputs["wr_cmd"]
        progressed = False
        if self._reads_issued < job.vectors and mux_sel.can_push():
            # one select token routes one host vector through the MUX
            mux_sel.push(job.array)
            self._reads_issued += 1
            progressed = True
        if wr_data.can_pop() and wr_cmd.can_push():
            self._push_write(job.array, wr_data.pop())
            progressed = True
        return progressed

    def _push_write(self, array: int, vec) -> None:
        """Scalar tick: one write command of *vec* at the write cursor."""
        values = vec[None]
        self.outputs["wr_cmd"].push(
            self._band_slice(array, self._writes_done, 1, values)
        )
        self._writes_done += 1

    def _mode_spec(self, job: Job):
        """``(src_arrays, dst_array, combine)`` of a compute-stage job.

        The combine functions are written so they apply identically to one
        ``(lanes,)`` vector (scalar path) and an ``(n, lanes)`` block
        (batched path) — NumPy broadcasting keeps the arithmetic
        bit-identical either way.
        """
        q = job.scalar
        if job.mode is Mode.COPY:  # c = a
            return (0,), 2, lambda a: a
        if job.mode is Mode.SCALE:  # a = q * b
            return (1,), 0, lambda b: _as_bits(q * _as_floats(b))
        if job.mode is Mode.SUM:  # a = b + c
            return (1, 2), 0, lambda b, c: _as_bits(_as_floats(b) + _as_floats(c))
        if job.mode is Mode.TRIAD:  # a = b + q * c
            return (
                (1, 2),
                0,
                lambda b, c: _as_bits(_as_floats(b) + q * _as_floats(c)),
            )
        raise SimulationError(f"{job.mode} is not a compute stage")

    def _tick_feedback(self, src_arrays, dst_array, combine) -> bool:
        """Shared logic for the compute stages: issue one parallel read per
        source port and turn arriving data into one parallel write."""
        job = self._job
        progressed = False
        if len(src_arrays) > self.config.read_ports:
            raise SimulationError(
                f"{job.mode.value} needs {len(src_arrays)} read ports, "
                f"design has {self.config.read_ports}"
            )
        # issue reads (one per port per cycle)
        if self._reads_issued < job.vectors:
            cmds = []
            for port, array in enumerate(src_arrays):
                stream = self.outputs[f"rd_cmd{port}"]
                if not stream.can_push():
                    break
                cmds.append((stream, self._band_slice(array, self._reads_issued, 1)))
            if len(cmds) == len(src_arrays):
                for stream, block in cmds:
                    stream.push(block)
                self._reads_issued += 1
                progressed = True
        # consume arriving data: combine and route the result through the
        # MUX's feedback input, as in Fig. 9 (the controller selects the
        # feedback loop)
        data_streams = [self.inputs[f"rd_data{p}"] for p in range(len(src_arrays))]
        mux_sel = self.outputs["mux_select"]
        feedback = self.outputs["feedback"]
        if (
            all(s.can_pop() for s in data_streams)
            and feedback.can_push()
            and mux_sel.can_push()
        ):
            vecs = [s.pop() for s in data_streams]
            feedback.push(combine(*vecs))
            mux_sel.push(MUX_FEEDBACK)
            progressed = True
        # drain the MUX into write commands at the destination cursor
        wr_data = self.inputs["wr_data"]
        if wr_data.can_pop() and self.outputs["wr_cmd"].can_push():
            self._push_write(dst_array, wr_data.pop())
            progressed = True
        return progressed

    # OFFLOAD: read rows on port 0, route to the host through the DEMUX.
    def _tick_offload(self) -> bool:
        job = self._job
        progressed = False
        rd_cmd = self.outputs["rd_cmd0"]
        if self._reads_issued < job.vectors and rd_cmd.can_push():
            rd_cmd.push(self._band_slice(job.array, self._reads_issued, 1))
            self._reads_issued += 1
            progressed = True
        rd_data = self.inputs["rd_data0"]
        demux_data = self.outputs["demux_data"]
        demux_sel = self.outputs["demux_select"]
        if rd_data.can_pop() and demux_data.can_push() and demux_sel.can_push():
            demux_data.push(rd_data.pop())
            demux_sel.push(job.array)
            self._writes_done += 1
            progressed = True
        return progressed

    # -- batched execution ---------------------------------------------------
    #
    # Each sub-activity of `_tick_load`/`_tick_feedback`/`_tick_offload`
    # becomes a BatchOp moving exactly one element per port per cycle.
    # Command streams carry PushClaims: `mux_select`/`demux_select` claim
    # their uniform value (so the MUX/DEMUX can plan the routing) and the
    # PolyMem command streams claim their access anchors (so the memory
    # kernel can compile and check the chunk's slot tables before
    # committing to it).

    def _finish_writes(self, job: Job, done: int) -> None:
        self._writes_done = done
        if done >= job.vectors:
            # same tick as the final write, exactly like the scalar path
            self._job = None
            self.completed_jobs += 1

    def _issue_select_run(self, job: Job):
        start = self._reads_issued

        def run(n: int) -> None:
            self.outputs["mux_select"].push_many(np.full(n, job.array))
            self._reads_issued = start + n

        return run

    def _issue_reads_run(self, src_arrays):
        start = self._reads_issued

        def run(n: int) -> None:
            for port, array in enumerate(src_arrays):
                self.outputs[f"rd_cmd{port}"].push_many(
                    self._band_slice(array, start, n)
                )
            self._reads_issued = start + n

        return run

    def _combine_run(self, nports: int, combine):
        def run(n: int) -> None:
            vecs = [self.inputs[f"rd_data{p}"].pop_many(n) for p in range(nports)]
            self.outputs["feedback"].push_many(combine(*vecs))
            self.outputs["mux_select"].push_many(np.full(n, MUX_FEEDBACK))

        return run

    def _drain_op(self, job: Job, dst_array: int) -> BatchOp:
        start = self._writes_done

        def run(n: int) -> None:
            values = self.inputs["wr_data"].pop_many(n)
            self.outputs["wr_cmd"].push_many(
                self._band_slice(dst_array, start, n, values)
            )
            self._finish_writes(job, start + n)

        return BatchOp(
            "drain",
            run,
            pops=("wr_data",),
            pushes=("wr_cmd",),
            claims={
                "wr_cmd": PushClaim(anchors=partial(self._band_slice, dst_array, start))
            },
        )

    def _offload_emit_run(self, job: Job):
        start = self._writes_done

        def run(n: int) -> None:
            data = self.inputs["rd_data0"].pop_many(n)
            self.outputs["demux_data"].push_many(data)
            self.outputs["demux_select"].push_many(np.full(n, job.array))
            self._finish_writes(job, start + n)

        return run

    def batch_plan(self, ctx: dict) -> BatchPlan | None:
        job = self._job
        if job is None:
            if len(self.inputs["job"]) > 0:
                return None  # job hand-off tick: scalar starts the mode
            return BatchPlan(sensitive=("job",))
        ops: list[BatchOp] = []
        sensitive: list[str] = []
        cycles: int | None = None
        reads_left = job.vectors - self._reads_issued
        writes_left = job.vectors - self._writes_done

        if job.mode is Mode.LOAD:
            if reads_left > 0:
                ops.append(
                    BatchOp(
                        "issue_sel",
                        self._issue_select_run(job),
                        pushes=("mux_select",),
                        claims={"mux_select": PushClaim(value=job.array)},
                    )
                )
                cycles = _bound(cycles, reads_left)
            if writes_left > 0 and len(self.inputs["wr_data"]) >= 1:
                ops.append(self._drain_op(job, job.array))
                cycles = _bound(cycles, writes_left)
            elif writes_left > 0:
                sensitive.append("wr_data")
        elif job.mode is Mode.OFFLOAD:
            if reads_left > 0:
                ops.append(
                    BatchOp(
                        "issue",
                        self._issue_reads_run((job.array,)),
                        pushes=("rd_cmd0",),
                        claims={
                            "rd_cmd0": PushClaim(
                                anchors=partial(
                                    self._band_slice, job.array, self._reads_issued
                                )
                            )
                        },
                    )
                )
                cycles = _bound(cycles, reads_left)
            if writes_left > 0 and len(self.inputs["rd_data0"]) >= 1:
                ops.append(
                    BatchOp(
                        "emit",
                        self._offload_emit_run(job),
                        pops=("rd_data0",),
                        pushes=("demux_data", "demux_select"),
                        claims={"demux_select": PushClaim(value=job.array)},
                    )
                )
                cycles = _bound(cycles, writes_left)
            elif writes_left > 0:
                sensitive.append("rd_data0")
        else:
            src_arrays, dst_array, combine = self._mode_spec(job)
            nports = len(src_arrays)
            if reads_left > 0:
                claims = {
                    f"rd_cmd{p}": PushClaim(
                        anchors=partial(self._band_slice, array, self._reads_issued)
                    )
                    for p, array in enumerate(src_arrays)
                }
                ops.append(
                    BatchOp(
                        "issue",
                        self._issue_reads_run(src_arrays),
                        pushes=tuple(claims),
                        claims=claims,
                    )
                )
                cycles = _bound(cycles, reads_left)
            data_ports = [f"rd_data{p}" for p in range(nports)]
            empty = [p for p in data_ports if len(self.inputs[p]) == 0]
            if not empty:
                ops.append(
                    BatchOp(
                        "combine",
                        self._combine_run(nports, combine),
                        pops=tuple(data_ports),
                        pushes=("feedback", "mux_select"),
                        claims={"mux_select": PushClaim(value=MUX_FEEDBACK)},
                    )
                )
            else:
                # a mid-chunk arrival on a dry port would start combining
                sensitive.extend(empty)
            if writes_left > 0 and len(self.inputs["wr_data"]) >= 1:
                ops.append(self._drain_op(job, dst_array))
                cycles = _bound(cycles, writes_left)
            elif writes_left > 0:
                sensitive.append("wr_data")

        if not ops:
            # waiting (e.g. on the read latency): scalar reports no progress
            return BatchPlan(sensitive=tuple(sensitive), active=False)
        return BatchPlan(cycles=cycles, ops=ops, sensitive=tuple(sensitive))


class JobsDone(RunCondition):
    """Typed run-condition: the controller has completed *target* jobs.

    The flip horizon lower-bounds the distance to completion by the
    current job's remaining writes (one write per cycle at best), letting
    the batched engine take full-size chunks without overshooting.
    """

    def __init__(self, controller: StreamController, target: int):
        self.controller = controller
        self.target = target

    def __call__(self) -> bool:
        return self.controller.completed_jobs >= self.target

    def min_cycles_to_flip(self) -> int:
        ctrl = self.controller
        if ctrl.completed_jobs >= self.target:
            return 0
        if ctrl._job is None:
            return 1
        return max(1, ctrl._job.vectors - ctrl._writes_done)


@dataclass
class StreamDesign:
    """The assembled Fig. 9 design."""

    manager: Manager
    config: PolyMemConfig
    controller: StreamController
    polymem: FusedPolyMemKernel | None
    dfe: DFE
    read_latency: int
    style: str = "fused"

    def host(self):
        from ..maxeler.host import Host

        return Host(self.dfe)


def build_stream_design(
    config: PolyMemConfig | None = None,
    clock_mhz: float = STREAM_COPY.clock_mhz,
    read_latency: int = STREAM_COPY.read_latency_cycles,
    board: VectisBoard | None = None,
    style: str = "fused",
    collision_policy: str = "read_first",
) -> StreamDesign:
    """Assemble the STREAM framework of Fig. 9.

    The defaults are the paper's synthesized design, read from
    :data:`~repro.hw.calibration.STREAM_COPY`: RoCo scheme, 8 lanes
    (2 x 4), 2 read ports, 120 MHz, a ~2 MB PolyMem of 510 x 512 words —
    three bands of 170 x 512 x 8 B ~ 700 KB each, the paper's maximum
    array size.
    """
    if config is None:
        ref = STREAM_COPY
        rows, cols = 3 * ref.max_array_rows, ref.array_cols
        config = PolyMemConfig(
            rows * cols * ref.word_bytes,
            p=ref.p,
            q=ref.q,
            scheme=ref.scheme,
            read_ports=2,
            rows=rows,
            cols=cols,
        )
    if style not in ("fused", "modular"):
        raise SimulationError(f"unknown STREAM design style {style!r}")
    mgr = Manager("stream", style=style)
    controller = StreamController("controller", config)
    mux = MuxKernel("mux", 4)
    demux = DemuxKernel("demux", 3)
    for k in (controller, mux, demux):
        mgr.add_kernel(k)
    polymem = None
    if style == "fused":
        polymem = FusedPolyMemKernel(
            "polymem",
            config,
            read_latency=read_latency,
            collision_policy=collision_policy,
        )
        mgr.add_kernel(polymem)
        wr_ep = (polymem, "wr_cmd")
        rd_cmd_eps = [(polymem, f"rd_cmd{r}") for r in range(config.read_ports)]
        rd_out_eps = [(polymem, f"rd_out{r}") for r in range(config.read_ports)]
        effective_latency = read_latency
    else:
        from ..maxpolymem.modular import add_modular_polymem

        ep = add_modular_polymem(mgr, config)
        wr_ep = ep.wr_cmd
        rd_cmd_eps = ep.rd_cmd
        rd_out_eps = ep.rd_out
        # the tick simulator chains same-cycle through kernels registered
        # downstream, so the modular pipeline's observable latency is set
        # by its registration cuts (banks + controller round trip), not
        # the 7 stage count: exactly 1 extra cycle beyond the slack
        # (measured, size-independent — see tests/stream_bench)
        effective_latency = 1

    # host -> controller job stream; host -> MUX array inputs
    mgr.host_to_kernel("job", controller, "job")
    mgr.host_to_kernel("a_in", mux, "in0")
    mgr.host_to_kernel("b_in", mux, "in1")
    mgr.host_to_kernel("c_in", mux, "in2")
    # controller <-> MUX
    mgr.connect(controller, "feedback", mux, "in3", capacity=64)
    mgr.connect(controller, "mux_select", mux, "select", capacity=64)
    mgr.connect(mux, "out", controller, "wr_data", capacity=64)
    # controller <-> PolyMem
    mgr.connect(controller, "wr_cmd", *wr_ep, capacity=64)
    for port in range(config.read_ports):
        mgr.connect(controller, f"rd_cmd{port}", *rd_cmd_eps[port], capacity=64)
        mgr.connect(
            rd_out_eps[port][0],
            rd_out_eps[port][1],
            controller,
            f"rd_data{port}",
            capacity=64,
        )
    # controller -> DEMUX -> host
    mgr.connect(controller, "demux_data", demux, "in", capacity=64)
    mgr.connect(controller, "demux_select", demux, "select", capacity=64)
    mgr.kernel_to_host("a_out", demux, "out0")
    mgr.kernel_to_host("b_out", demux, "out1")
    mgr.kernel_to_host("c_out", demux, "out2")

    dfe = DFE(mgr, clock_mhz=clock_mhz, board=board, max_cycles=100_000_000)
    return StreamDesign(
        manager=mgr,
        config=config,
        controller=controller,
        polymem=polymem,
        dfe=dfe,
        read_latency=effective_latency,
        style=style,
    )
