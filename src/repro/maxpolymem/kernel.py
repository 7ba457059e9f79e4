"""The fused MAX-PolyMem kernel: the whole Fig. 3 design in one kernel.

The paper built two variants of MAX-PolyMem (§III-C): a modular multi-kernel
design and a fused single-kernel design (which halves resource usage).
:class:`FusedPolyMemKernel` is the fused variant — a single dataflow kernel
that accepts one write command and one read command per port per cycle and
produces read data after a fixed pipeline latency (the paper measures 14
cycles for the synthesized STREAM design).

Stream protocol
---------------
* ``wr_cmd`` — a :class:`~repro.maxeler.stream.CommandStream` of write
  commands, the ``(i, j, AccType, DataIn)`` bundles, pushed as
  :class:`~repro.core.plan.AccessBlock` s with ``(n, lanes)`` values.
* ``rd_cmd{r}`` — per read port, a command stream of read blocks, the
  ``(i, j, AccType)`` bundles.
* ``rd_out{r}`` — per read port, lane-ordered result vectors, emerging
  ``read_latency`` cycles after the command entered.

A scalar tick takes one command per port from the head block.  A batched
chunk takes a port's ``n`` commands from its queued backlog first and
then from the in-chunk producer's claim, as one block.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..core.agu import AccessRequest
from ..core.config import PolyMemConfig
from ..core.exceptions import PatternError
from ..core.plan import AccessBlock, forward_indices
from ..core.polymem import PolyMem
from ..maxeler.batch import IDLE_PLAN, BatchOp, BatchPlan
from ..maxeler.kernel import Kernel
from ..telemetry import context as _telemetry

__all__ = ["FusedPolyMemKernel", "DEFAULT_READ_LATENCY"]

#: pipeline depth of the synthesized design, estimated by Maxeler's tools
#: for the paper's STREAM experiment (§V)
DEFAULT_READ_LATENCY = 14


def _bound(current: int | None, new: int) -> int:
    return new if current is None else min(current, new)


class FusedPolyMemKernel(Kernel):
    """Single-kernel MAX-PolyMem with pipelined reads.

    Per tick it consumes at most one ``wr_cmd`` and one ``rd_cmd{r}`` per
    read port — the paper's "one write access and one read access for each
    read port ... independently at the same time".
    """

    COMMAND_PORTS = ("wr_cmd", "rd_cmd")

    def __init__(
        self,
        name: str,
        config: PolyMemConfig,
        read_latency: int = DEFAULT_READ_LATENCY,
        collision_policy: str = "read_first",
    ):
        super().__init__(name)
        self.config = config
        self.memory = PolyMem(config, collision_policy=collision_policy)
        self.read_latency = read_latency
        self._now = 0
        # per-port in-flight pipelines of (issue_cycle, result_vector)
        self._pipes: list[deque[tuple[int, np.ndarray]]] = [
            deque() for _ in range(config.read_ports)
        ]
        # batched-chunk scratch: per-port results accepted this chunk,
        # the producer claims of the ports a chunk accepts on (None: a
        # queued backlog alone), whether it writes, and the slot tables
        # the chunk proof built
        self._accepted: dict[int, np.ndarray] = {}
        self._rd_claims: dict[int, object] = {}
        self._wr_claim = None
        self._writes = False
        self._rd_slots: dict[int, np.ndarray] = {}
        self._wr_slots: np.ndarray | None = None

    def _tick(self) -> bool:
        self._now += 1
        # an occupied read pipeline advances every cycle — that is progress,
        # or the simulator would flag the latency wait as a deadlock
        progressed = any(self._pipes)
        # 1) retire pipelined reads whose latency elapsed
        for port, pipe in enumerate(self._pipes):
            out = self.outputs.get(f"rd_out{port}")
            if (
                pipe
                and out is not None
                and pipe[0][0] + self.read_latency <= self._now
                and out.can_push()
            ):
                out.push(pipe.popleft()[1])
                progressed = True
        # 2) accept one command per port; reads and the write share a cycle
        reads: list[tuple[int, AccessRequest]] = []
        for port in range(self.config.read_ports):
            cmd = self.inputs.get(f"rd_cmd{port}")
            if (
                cmd is not None
                and cmd.can_pop()
                and len(self._pipes[port]) < self.read_latency
            ):
                reads.append((port, cmd.peek()[0]))
        write = None
        wr = self.inputs.get("wr_cmd")
        if wr is not None and wr.can_pop():
            write = wr.peek()
        if reads or write is not None:
            results = self.memory.step(reads=reads, write=write)
            for port, _ in reads:
                self.inputs[f"rd_cmd{port}"].pop()
                self._pipes[port].append((self._now, results[port]))
            if write is not None:
                wr.pop()
            progressed = True
        return progressed

    @property
    def idle(self) -> bool:
        return all(not pipe for pipe in self._pipes)

    @property
    def cycles(self) -> int:
        """Parallel-access cycles consumed by the underlying memory."""
        return self.memory.cycles

    # -- batched execution --------------------------------------------------
    #
    # The chunked sub-activities below reproduce `_tick`'s per-cycle
    # behaviour exactly, under the uniformity conditions `batch_plan`
    # checks: every accepted command stream delivers one command per cycle
    # (its queued backlog, then its producer's claim), every streaming
    # pipe is full with
    # consecutive stamps and an exactly-ripe head, and no read of the
    # chunk observes one of its writes (`_validate_chunk`), so gathering
    # every read from the pre-chunk memory and then scattering the writes
    # equals one `step` per cycle.

    def _pop_cmds_read(self, port: int, n: int) -> None:
        """Accept n read commands on *port*: one gather of the chunk's
        read slots from the pre-chunk memory state, kept as one
        ``(n, lanes)`` block."""
        self.inputs[f"rd_cmd{port}"].pop_many(n)
        self._accepted[port] = self.memory.banks.read_slots(
            port, self._rd_slots[port]
        )

    def _accept_fill(self, port: int):
        # pipe empty at chunk start: n <= latency commands enter, nothing
        # ripens inside the window
        def run(n: int) -> None:
            self._pop_cmds_read(port, n)
            rows = self._accepted.pop(port)
            base = self._now
            self._pipes[port] = deque(
                (base + t + 1, rows[t]) for t in range(n)
            )

        return run

    def _accept_steady(self, port: int):
        def run(n: int) -> None:
            self._pop_cmds_read(port, n)

        return run

    def _retire_steady(self, port: int):
        # full pipe + accepted results have consecutive stamps: n cycles
        # retire the first n, keep the last `read_latency`
        def run(n: int) -> None:
            values = np.concatenate(
                ([v for _, v in self._pipes[port]], self._accepted.pop(port))
            )
            self.outputs[f"rd_out{port}"].push_many(values[:n])
            first = self._now + 1 - self.read_latency
            self._pipes[port] = deque(
                (first + m, values[m])
                for m in range(n, n + self.read_latency)
            )

        return run

    def _retire_drain(self, port: int):
        def run(n: int) -> None:
            pipe = self._pipes[port]
            self.outputs[f"rd_out{port}"].push_many(
                np.array([pipe.popleft()[1] for _ in range(n)])
            )

        return run

    def _accept_write(self, n: int) -> None:
        values = self.inputs["wr_cmd"].pop_many(n).values
        if values.shape[1:] != (self.memory.lanes,):
            raise PatternError(
                f"write expects {self.memory.lanes} lane values, got shape "
                f"{values.shape[1:]}"
            )
        self.memory.banks.write_slots(self._wr_slots, values.ravel())

    def _advance(self, n: int) -> None:
        """Last sub-activity of every chunk: advance local time and charge
        the memory one cycle per chunk cycle that issued an access, as
        the scalar path's one `step` per cycle does."""
        self._now += n
        if self._rd_claims or self._writes:
            self.memory.account_fused(
                n, self._rd_claims, self._writes, _telemetry.active()
            )

    def _ripe_prefix(self, port: int) -> int:
        """Length of the pipe prefix retiring one element per cycle from
        the next tick on (consecutive stamps from an exactly-ripe head)."""
        pipe = self._pipes[port]
        head = pipe[0][0]
        if head + self.read_latency != self._now + 1:
            return 0
        run = 0
        for stamp, _ in pipe:
            if stamp != head + run:
                break
            run += 1
        return run

    def batch_plan(self, ctx: dict) -> BatchPlan | None:
        latency = self.read_latency
        ops: list[BatchOp] = []
        sensitive: list[str] = []
        cycles: int | None = None
        self._rd_claims = {}
        self._wr_claim = None
        self._writes = False
        engaged = any(self._pipes)

        for port in range(self.config.read_ports):
            cmd_name = f"rd_cmd{port}"
            cmd_s = self.inputs.get(cmd_name)
            out_s = self.outputs.get(f"rd_out{port}")
            pipe = self._pipes[port]
            claim = ctx.get(cmd_s) if cmd_s is not None else None
            if claim is None and cmd_s is not None:
                sensitive.append(cmd_name)  # no producer may join mid-chunk
            if claim is not None or (cmd_s is not None and len(cmd_s) > 0):
                if out_s is None:
                    return None
                if claim is not None and claim.anchors is None:
                    return None  # untyped producer: cannot prove the chunk
                self._rd_claims[port] = claim
                if not pipe:
                    ops.append(
                        BatchOp(
                            f"accept{port}",
                            self._accept_fill(port),
                            pops=(cmd_name,),
                        )
                    )
                    cycles = _bound(cycles, latency)
                elif len(pipe) == latency and self._ripe_prefix(port) == latency:
                    ops.append(
                        BatchOp(
                            f"accept{port}",
                            self._accept_steady(port),
                            pops=(cmd_name,),
                        )
                    )
                    ops.append(
                        BatchOp(
                            f"retire{port}",
                            self._retire_steady(port),
                            pushes=(f"rd_out{port}",),
                        )
                    )
                else:
                    return None  # partially-filled or stalled pipe
            elif pipe:
                if out_s is None:
                    return None
                prefix = self._ripe_prefix(port)
                if prefix:
                    ops.append(
                        BatchOp(
                            f"retire{port}",
                            self._retire_drain(port),
                            pushes=(f"rd_out{port}",),
                        )
                    )
                    cycles = _bound(cycles, prefix)
                else:
                    wait = pipe[0][0] + latency - self._now - 1
                    if wait < 1:
                        return None  # overdue head (stalled): scalar
                    cycles = _bound(cycles, wait)

        wr_s = self.inputs.get("wr_cmd")
        if wr_s is not None:
            wr_claim = ctx.get(wr_s)
            if wr_claim is None:
                sensitive.append("wr_cmd")
            if wr_claim is not None or len(wr_s) > 0:
                if wr_claim is not None and wr_claim.anchors is None:
                    return None
                self._wr_claim = wr_claim
                self._writes = True
                ops.append(
                    BatchOp("accept_wr", self._accept_write, pops=("wr_cmd",))
                )

        if not ops and cycles is None:
            if engaged:
                return None
            if not sensitive:
                return IDLE_PLAN
            return BatchPlan(sensitive=tuple(sensitive))
        # reads run before the write (the intra-kernel chain), pinning the
        # read-before-write order the chunk proof assumes; `advance` runs
        # last to move local time and charge the memory once per chunk
        ops.append(BatchOp("advance", self._advance))
        return BatchPlan(
            cycles=cycles,
            ops=ops,
            sensitive=tuple(sensitive),
            active=True,
            validate=self._validate_chunk,
        )

    def _chunk_block(self, port: str, claim, n: int) -> AccessBlock | None:
        """The *n* commands a chunk accepts on command *port*: its queued
        backlog first, then the in-chunk producer's claim.  ``None`` when
        a queued write lacks lane-wide data (scalar `step` raises)."""
        queue = self.inputs[port]
        block = queue.anchors(min(len(queue), n))
        if port == "wr_cmd" and len(block) and (
            block.values is None or block.values.shape[1] != self.memory.lanes
        ):
            return None
        if len(block) < n:
            block = AccessBlock.concat([block, claim.anchors(n - len(block))])
        return block

    def _validate_chunk(self, n: int) -> bool:
        """The chunk proof, compiled like a fused program step: expand
        each port's chunk block (:meth:`_chunk_block`) once into slot
        tables (kept for the chunk's sub-activities) and admit the chunk
        only when every cycle is valid (queued write data lane-wide
        included) and :func:`~repro.core.plan.forward_indices` finds no
        read observing an in-chunk write and no ``forbid`` collision.  Then
        gathering the reads from the pre-chunk memory and scattering the
        writes afterwards equals per-cycle :meth:`PolyMem.step`; a
        rejected chunk ticks scalar, where `step` raises its own error
        on an invalid access.
        """
        plan = self.memory.plan
        self._rd_slots = {}
        for port, claim in self._rd_claims.items():
            block = self._chunk_block(f"rd_cmd{port}", claim, n)
            slots, valid = block.tables(plan)
            if not valid.all():
                return False
            self._rd_slots[port] = slots
        if not self._writes:
            return True
        block = self._chunk_block("wr_cmd", self._wr_claim, n)
        if block is None:
            return False
        w_slots, valid = block.tables(plan)
        if not valid.all():
            return False
        forwards = forward_indices(self._rd_slots, w_slots, self.memory)
        if forwards is None or forwards:  # a forbid collision or a forward
            return False
        self._wr_slots = w_slots.ravel()
        return True
