"""The PolyMem facade: a polymorphic parallel memory (paper Fig. 3).

:class:`PolyMem` is the functional model of the whole design: per-port AGUs,
the module-assignment block ``M``, the addressing function ``A``, the three
shuffles, and the replicated bank array.  One *cycle* moves one parallel
access through every port: up to one write plus one read per read port, all
independent (paper §III-B: "one write access and one read access for each
read port can happen independently at the same time").

Three access paths exist:

* the **architectural path** (:meth:`step`, :meth:`read`, :meth:`write`) —
  one access at a time.  By default each access applies a compiled
  :class:`~repro.core.plan.AccessPlan` (the anchor-invariant bank/address/
  shuffle structure, cached per access family — the software analogue of
  the fixed combinational logic of Fig. 3); setting ``use_plans = False``
  re-derives everything per access and routes data through explicit
  :class:`~repro.core.shuffle.Shuffle` objects, which is the reference
  behaviour the planned path is property-tested against;
* the **batch path** (:meth:`read_batch`, :meth:`write_batch`) — a
  vectorized fast path for simulation throughput that fancy-indexes the
  bank array directly; it is bit-identical to the architectural path
  (property-tested) and counts cycles the same way;
* the **replay path** (:meth:`replay`) — executes a whole
  :class:`~repro.core.plan.AccessTrace` (multi-port reads plus a write
  stream, N cycles) as fancy-indexed NumPy operations, bit-identical to N
  serial :meth:`step` calls including collision policies, statistics and
  error behaviour.

The naming convention for shuffles follows the implementation, not the
paper's signal convention: our reordering signal is the lane→bank
permutation, under which the write-side data shuffle is a *scatter*
(``repro``'s regular :class:`Shuffle`) and the read-side is a *gather*
(:class:`InverseShuffle`).  With the paper's bank→lane signal the labels
swap; the two conventions are functionally identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .addressing import AddressingFunction
from .agu import AGU, AccessRequest
from .banks import BankArray
from .config import PolyMemConfig
from .conflict import conflict_banks
from .exceptions import (
    AddressError,
    ConfigurationError,
    ConflictError,
    PatternError,
    PortError,
    SimulationError,
)
from .patterns import PatternKind
from .plan import AccessPlan, AccessTrace, compile_plan
from .schemes import SCHEME_SPECS, flat_module_assignment
from .shuffle import InverseShuffle, Shuffle
from ..telemetry import context as _telemetry

__all__ = ["PolyMem", "AccessRequest", "AccessTrace", "PortStats"]


@dataclass
class PortStats:
    """Per-port access counters (feeds bandwidth accounting)."""

    accesses: int = 0
    elements: int = 0

    def record(self, lanes: int) -> None:
        self.accesses += 1
        self.elements += lanes


class PolyMem:
    """A configured polymorphic parallel memory.

    >>> from repro.core.config import PolyMemConfig, KB
    >>> from repro.core.schemes import Scheme
    >>> pm = PolyMem(PolyMemConfig(4 * KB, p=2, q=4, scheme=Scheme.ReRo))
    >>> import numpy as np
    >>> pm.write(PatternKind.RECTANGLE, 0, 0, np.arange(8))
    >>> pm.read(PatternKind.ROW, 0, 0)[:4]
    array([0, 1, 2, 3], dtype=uint64)
    """

    #: same-cycle read/write collision policies (Xilinx BRAM port semantics)
    COLLISION_POLICIES = ("read_first", "write_first", "forbid")

    #: :meth:`replay` keeps two dense per-slot tables (cycle + value) when
    #: the memory has at most this many bank slots *and* the trace writes
    #: no slot twice; beyond it (or with repeated slots) it falls back to
    #: the event-sort resolution
    DENSE_SLOT_LIMIT = 1 << 21

    def __init__(self, config: PolyMemConfig, collision_policy: str = "read_first"):
        if collision_policy not in self.COLLISION_POLICIES:
            raise ConfigurationError(
                f"collision_policy must be one of {self.COLLISION_POLICIES}, "
                f"got {collision_policy!r}"
            )
        #: what a read returns when the same cycle's write hits the same
        #: (bank, address) slot: ``"read_first"`` — the old data (the
        #: default, matching READ_FIRST BRAM ports and the paper's
        #: independent-port description); ``"write_first"`` — the freshly
        #: written data (WRITE_FIRST write-through); ``"forbid"`` — raise,
        #: turning same-cycle RAW hazards into hard errors (verification
        #: mode; real BRAMs return undefined data on cross-port collisions)
        self.collision_policy = collision_policy
        self.config = config
        self.scheme = config.scheme
        self.p, self.q = config.p, config.q
        self.rows, self.cols = config.rows, config.cols
        self.agu = AGU(self.rows, self.cols, self.p, self.q)
        self.addressing = AddressingFunction(self.rows, self.cols, self.p, self.q)
        self.banks = BankArray(
            num_banks=config.lanes,
            bank_depth=config.bank_depth,
            read_ports=config.read_ports,
            dtype=np.uint64 if config.width_bits == 64 else np.uint32,
        )
        self._addr_shuffle = Shuffle(config.lanes)
        self._write_shuffle = Shuffle(config.lanes)
        self._read_shuffle = InverseShuffle(config.lanes)
        #: apply compiled access plans (default); ``False`` re-derives the
        #: bank/address/shuffle structure per access — the reference path
        self.use_plans = True
        self._plan_cache: dict[tuple[PatternKind, int], AccessPlan] = {}
        self._lane_idx = np.arange(config.lanes)
        #: total cycles consumed by parallel accesses
        self.cycles = 0
        self.write_stats = PortStats()
        self.read_stats = [PortStats() for _ in range(config.read_ports)]

    # -- geometry ---------------------------------------------------------
    @property
    def lanes(self) -> int:
        """Elements per port per cycle."""
        return self.config.lanes

    @property
    def read_ports(self) -> int:
        """Number of independent read ports."""
        return self.config.read_ports

    # -- access validation --------------------------------------------------
    def check_access(self, request: AccessRequest) -> None:
        """Raise :class:`ConflictError` when *request* is not conflict-free.

        The check combines the static scheme table (fast rejection with a
        helpful message) with the actual bank mapping (ground truth).
        """
        spec = SCHEME_SPECS[self.scheme]
        clashes = conflict_banks(
            self.scheme, request.kind, request.i, request.j, self.p, self.q,
            request.stride,
        )
        if clashes:
            entry = spec.entry_for(request.kind)
            if request.stride != 1:
                hint = (
                    f"stride-{request.stride} {request.kind.value} accesses "
                    f"are not conflict-free under {self.scheme} here"
                )
            elif entry is None or not entry.condition_holds(self.p, self.q):
                hint = (
                    f"scheme {self.scheme} does not support "
                    f"{request.kind.value} accesses on a {self.p}x{self.q} grid"
                )
            else:
                hint = (
                    f"anchor ({request.i},{request.j}) violates the "
                    f"'{entry.anchor_constraint}' constraint of {self.scheme}"
                )
            raise ConflictError(
                f"access {request} conflicts on banks {clashes}: {hint}",
                banks=clashes,
            )

    # -- compiled access plans -------------------------------------------------
    def plan(self, kind: PatternKind, stride: int = 1) -> AccessPlan:
        """The compiled :class:`AccessPlan` for one ``(shape, stride)``
        family on this memory's geometry (instance-cached; the underlying
        compilation is shared process-wide across same-geometry memories).
        """
        key = (PatternKind(kind), stride)
        plan = self._plan_cache.get(key)
        tel = _telemetry.active()
        if plan is None:
            if tel is not None:
                tel.metrics.counter("polymem.plan_cache.misses").inc()
            plan = compile_plan(
                self.rows, self.cols, self.p, self.q, self.scheme, key[0], stride
            )
            self._plan_cache[key] = plan
        elif tel is not None:
            tel.metrics.counter("polymem.plan_cache.hits").inc()
        return plan

    # -- architectural single-access path -------------------------------------
    def _expand(self, request: AccessRequest):
        """Expand one request into ``(banks, addrs, lane_of_bank)``.

        ``lane_of_bank`` is the inverse lane→bank permutation used to
        apply the address/write-data scatter as a gather; it is ``None``
        on the unplanned path, signalling :meth:`step` to route through
        the explicit :class:`Shuffle` objects instead.
        """
        if not self.use_plans:
            ii, jj = self.agu.expand(request)
            self.check_access(request)
            banks = flat_module_assignment(self.scheme, ii, jj, self.p, self.q)
            addrs = self.addressing(ii, jj)
            return banks, addrs, None
        plan = self.plan(request.kind, request.stride)
        i, j = request.i, request.j
        if not plan.fits(i, j):
            raise AddressError(
                f"access {request} exceeds the {self.rows}x{self.cols} space"
            )
        if not plan.conflict_free(i, j):
            self.check_access(request)  # raises with the diagnostic message
        return plan.banks(i, j), plan.addrs(i, j), plan.inverse_permutation(i, j)

    def step(
        self,
        reads: list[tuple[int, AccessRequest]] | None = None,
        write: tuple[AccessRequest, np.ndarray] | None = None,
    ) -> dict[int, np.ndarray]:
        """Execute one cycle: up to one access per port, all concurrent.

        Parameters
        ----------
        reads:
            ``(port, request)`` pairs; at most one per read port.
        write:
            Optional ``(request, values)``; *values* is the lane-ordered
            vector of ``p*q`` elements to store (the ``DataIn`` signal).

        Returns
        -------
        dict mapping each read port to its lane-ordered result vector (the
        ``DataOut_r`` signals).  Reads observe the state *before* this
        cycle's write (read-before-write port semantics, matching
        independent BRAM ports).
        """
        reads = reads or []
        used_ports = [p for p, _ in reads]
        if len(set(used_ports)) != len(used_ports):
            raise PortError("multiple reads issued to the same port in one cycle")
        tel = _telemetry.active()
        # expand the write first so read/write collisions can be resolved
        # per the configured BRAM port policy; the slot index is built only
        # when a policy actually consults it (read_first never does)
        w_banks = w_addrs = w_lob = None
        w_slots_sorted = w_order = None
        write_by_lane = None
        if write is not None:
            w_banks, w_addrs, w_lob = self._expand(write[0])
            write_by_lane = np.asarray(write[1])
            if self.collision_policy != "read_first":
                w_slots = (
                    w_banks.astype(np.int64) * self.banks.bank_depth + w_addrs
                )
                w_order = np.argsort(w_slots)
                w_slots_sorted = w_slots[w_order]
        results: dict[int, np.ndarray] = {}
        for port, request in reads:
            if not 0 <= port < self.read_ports:
                raise PortError(
                    f"read port {port} out of range [0, {self.read_ports})"
                )
            banks, addrs, lob = self._expand(request)
            if lob is None:
                addr_by_bank = self._addr_shuffle(addrs, banks)
                data_by_bank = self.banks.read(port, self._lane_idx, addr_by_bank)
                result = self._read_shuffle(data_by_bank, banks)
            else:
                data_by_bank = self.banks.read(port, self._lane_idx, addrs[lob])
                result = data_by_bank[banks]
            if w_slots_sorted is not None:
                slots = banks.astype(np.int64) * self.banks.bank_depth + addrs
                pos = np.minimum(
                    np.searchsorted(w_slots_sorted, slots), self.lanes - 1
                )
                hit = w_slots_sorted[pos] == slots
                if hit.any():
                    if self.collision_policy == "forbid":
                        lane = int(np.flatnonzero(hit)[0])
                        raise SimulationError(
                            f"same-cycle read/write collision on bank slot "
                            f"{int(slots[lane])} (read {request}, "
                            f"write {write[0]})"
                        )
                    if tel is not None:
                        tel.metrics.counter("polymem.collision.forwarded").inc(
                            int(np.count_nonzero(hit))
                        )
                    result = result.copy()
                    result[hit] = write_by_lane[w_order[pos[hit]]]
            results[port] = result
            self.read_stats[port].record(self.lanes)
        if write is not None:
            values = np.asarray(write[1])
            if values.shape != (self.lanes,):
                raise PatternError(
                    f"write expects {self.lanes} lane values, got shape "
                    f"{values.shape}"
                )
            if w_lob is None:
                addr_by_bank = self._addr_shuffle(w_addrs, w_banks)
                data_by_bank = self._write_shuffle(values, w_banks)
            else:
                addr_by_bank = w_addrs[w_lob]
                data_by_bank = values[w_lob]
            self.banks.write(self._lane_idx, addr_by_bank, data_by_bank)
            self.write_stats.record(self.lanes)
        self.cycles += 1
        if tel is not None:
            m = tel.metrics
            m.counter("polymem.cycles.step").inc()
            m.counter("polymem.parallel_accesses").inc(
                len(reads) + (1 if write is not None else 0)
            )
        return results

    def read(
        self, kind: PatternKind, i: int, j: int, port: int = 0, stride: int = 1
    ) -> np.ndarray:
        """One parallel read; returns the ``p*q`` lane-ordered elements."""
        req = AccessRequest(PatternKind(kind), i, j, stride)
        return self.step(reads=[(port, req)])[port]

    def write(
        self, kind: PatternKind, i: int, j: int, values, stride: int = 1
    ) -> None:
        """One parallel write of ``p*q`` lane-ordered *values*."""
        req = AccessRequest(PatternKind(kind), i, j, stride)
        self.step(write=(req, np.asarray(values)))

    # -- vectorized batch path -----------------------------------------------
    def _batch_anchors(self, kind: PatternKind, anchors_i, anchors_j, stride: int):
        """Normalize batch anchors and fetch the plan; bounds-checked."""
        anchors_i = np.asarray(anchors_i, dtype=np.int64)
        anchors_j = np.asarray(anchors_j, dtype=np.int64)
        if anchors_i.shape != anchors_j.shape or anchors_i.ndim != 1:
            raise PatternError("anchor arrays must be equal-length 1-D")
        plan = self.plan(kind, stride)
        if anchors_i.size and not plan.fits_mask(anchors_i, anchors_j).all():
            raise AddressError(
                f"batch of {PatternKind(kind)} accesses exceeds the "
                f"{self.rows}x{self.cols} space"
            )
        return plan, anchors_i, anchors_j

    def _expand_batch(
        self, kind: PatternKind, anchors_i, anchors_j, check: bool, stride: int = 1
    ):
        plan, anchors_i, anchors_j = self._batch_anchors(
            kind, anchors_i, anchors_j, stride
        )
        if check and anchors_i.size:
            ok = plan.ok_mask(anchors_i, anchors_j)
            if not ok.all():
                bad = int(np.flatnonzero(~ok)[0])
                raise ConflictError(
                    f"batch access {bad} (anchor "
                    f"({anchors_i[bad]},{anchors_j[bad]})) is not conflict-free "
                    f"under {self.scheme}"
                )
        return (
            plan.banks_many(anchors_i, anchors_j),
            plan.addrs_many(anchors_i, anchors_j),
        )

    def read_batch(
        self,
        kind: PatternKind,
        anchors_i,
        anchors_j,
        port: int = 0,
        check: bool = True,
        stride: int = 1,
    ) -> np.ndarray:
        """Vectorized sequence of parallel reads on one port.

        Returns a ``(B, p*q)`` array; costs ``B`` cycles on *port*.
        """
        if not 0 <= port < self.read_ports:
            raise PortError(f"read port {port} out of range [0, {self.read_ports})")
        banks, addrs = self._expand_batch(kind, anchors_i, anchors_j, check, stride)
        out = self.banks.read(port, banks, addrs)
        n = banks.shape[0]
        self.cycles += n
        self.read_stats[port].accesses += n
        self.read_stats[port].elements += n * self.lanes
        tel = _telemetry.active()
        if tel is not None:
            m = tel.metrics
            m.counter("polymem.cycles.batch").inc(n)
            m.counter("polymem.parallel_accesses").inc(n)
        return out

    def write_batch(
        self, kind: PatternKind, anchors_i, anchors_j, values, check: bool = True
    ) -> None:
        """Vectorized sequence of parallel writes; *values* is ``(B, p*q)``.

        Later accesses in the batch observe earlier writes (sequential
        semantics), which fancy-index assignment provides as long as the
        batch is conflict-free per access — overlapping *anchors* between
        accesses follow NumPy's last-write-wins, matching hardware issue
        order only for non-overlapping batches; pass overlapping sequences
        through :meth:`write` instead.
        """
        values = np.asarray(values)
        banks, addrs = self._expand_batch(kind, anchors_i, anchors_j, check)
        if values.shape != banks.shape:
            raise PatternError(
                f"write_batch expects values shaped {banks.shape}, got {values.shape}"
            )
        self.banks.write(banks, addrs, values)
        n = banks.shape[0]
        self.cycles += n
        self.write_stats.accesses += n
        self.write_stats.elements += n * self.lanes
        tel = _telemetry.active()
        if tel is not None:
            m = tel.metrics
            m.counter("polymem.cycles.batch").inc(n)
            m.counter("polymem.parallel_accesses").inc(n)

    def account_fused(self, n: int, ports, has_write: bool, tel) -> None:
        """Charge *n* cycles of precomputed-table accesses — one read on
        each of *ports* plus the write when *has_write*, every cycle —
        exactly as *n* :meth:`step` calls would: one memory cycle each,
        however many ports it served.  Fused program steps and batched
        MAX-PolyMem chunks account through this; *tel* is the active
        telemetry session or ``None``.
        """
        for port in ports:
            self.read_stats[port].accesses += n
            self.read_stats[port].elements += n * self.lanes
        if has_write:
            self.write_stats.accesses += n
            self.write_stats.elements += n * self.lanes
        self.cycles += n
        if tel is not None:
            m = tel.metrics
            m.counter("polymem.cycles.fused").inc(n)
            m.counter("polymem.parallel_accesses").inc(
                n * (len(ports) + (1 if has_write else 0))
            )

    # -- whole-trace replay ----------------------------------------------------
    def replay(self, trace: AccessTrace) -> dict[int, np.ndarray]:
        """Execute a whole :class:`AccessTrace` as vectorized operations.

        Bit-identical to issuing the trace's ``n`` cycles through
        :meth:`step` one at a time — same results, same memory state, same
        cycle/port accounting, same collision-policy semantics (including
        the exact error, partial statistics and partial memory state when a
        cycle is invalid) — but executed as a handful of whole-trace
        fancy-indexed NumPy operations.

        Returns a dict mapping each read port to its ``(n, lanes)`` result
        matrix (row *t* is what ``step`` cycle *t* would have returned).
        """
        tel = _telemetry.active()
        if tel is None or tel.tracer is None:
            return self._replay(trace)
        with tel.tracer.span(
            "polymem.replay", cat="core", cycles=trace.n,
            ports=len(trace.read_ports), write=trace.has_write,
        ):
            return self._replay(trace)

    def _replay(self, trace: AccessTrace) -> dict[int, np.ndarray]:
        n = trace.n
        for port in trace.read_ports:
            if not 0 <= port < self.read_ports:
                raise PortError(
                    f"read port {port} out of range [0, {self.read_ports})"
                )
        if n == 0:
            return {
                port: np.empty((0, self.lanes), dtype=self.banks.dtype)
                for port in trace.read_ports
            }
        depth = self.banks.bank_depth
        # each stream expands itself (`AccessBlock.tables`), as in fused
        # program steps and MAX-PolyMem chunks; slot ids of invalid cycles
        # are garbage, used only once the whole trace is valid
        reads = {
            port: stream.tables(self.plan) for port, stream in trace._reads.items()
        }
        bad = np.zeros(n, dtype=bool)
        for _, (_, valid) in reads.items():
            bad |= ~valid
        w_slots = w_values = None
        if trace.has_write:
            w_stream = trace._write
            w_expanded, w_valid = w_stream.tables(self.plan)
            bad |= ~w_valid
            w_values = np.asarray(w_stream.values)
            if w_values.shape[1] != self.lanes:
                bad[0] = True  # step() raises the shape PatternError there
            else:
                w_slots = w_expanded
        # Read/write resolution needs, per read element (slot, t), the
        # latest write to that slot before (or at) cycle t.  Fast path:
        # when no slot is written twice in the whole trace, a dense
        # per-slot table answers that with two gathers — no sorting at
        # all.  General path: order write events by key
        # slot * (n + 1) + cycle (slot-major, then time; keys are unique
        # because one valid cycle's write slots are distinct) and binary
        # search for exact predecessors.
        kw_sorted = w_order = last_t = last_val = None
        if w_slots is not None:
            t_col = np.arange(n, dtype=np.int64)[:, None]
            flat_w = w_slots.ravel()
            total_slots = self.lanes * depth
            # invalid cycles expand to out-of-range slot ids the dense
            # tables cannot index; the event keys tolerate them, so traces
            # headed for the serial error fallback take the event path
            if total_slots <= self.DENSE_SLOT_LIMIT and not bad.any():
                # sentinel n ("written later than every cycle") instead of
                # -1 keeps the fold to a single comparison per element;
                # int32 halves the table the fold gathers from
                last_t = np.full(total_slots, n, dtype=np.int32)
                last_t[w_slots] = t_col
                if int(np.count_nonzero(last_t != n)) == flat_w.size:
                    last_val = np.empty(total_slots, dtype=self.banks.dtype)
                    last_val[w_slots] = w_values
                else:
                    last_t = None  # a slot is written twice: event path
            if last_t is None:
                kw = (w_slots * (n + 1) + t_col).ravel()
                w_order = np.argsort(kw)
                kw_sorted = kw[w_order]
            if self.collision_policy == "forbid" and not bad.all():
                for port, (r_slots, _) in reads.items():
                    if last_t is not None:
                        hit = last_t[r_slots] == t_col
                    else:
                        kr = r_slots * (n + 1) + t_col
                        pos = np.searchsorted(kw_sorted, kr.ravel())
                        pos = np.minimum(pos, kw_sorted.size - 1)
                        hit = (kw_sorted[pos] == kr.ravel()).reshape(
                            n, self.lanes
                        )
                    bad |= hit.any(axis=1)
        if bad.any():
            # replay the valid prefix, then re-issue the first bad cycle
            # serially: step() raises the exact error with the exact
            # partial statistics and memory state
            t_star = int(np.flatnonzero(bad)[0])
            self.replay(trace.prefix(t_star))
            step_reads, step_write = trace.cycle_args(t_star)
            self.step(reads=step_reads, write=step_write)
            raise SimulationError(
                f"replay flagged cycle {t_star} but serial step succeeded"
            )  # pragma: no cover - detection is property-tested against step
        tel = _telemetry.active()
        results: dict[int, np.ndarray] = {}
        for port, (r_slots, _) in reads.items():
            # pre-trace state; same-trace writes are folded in below.
            # a read at cycle t observes writes with cycle < t
            # (read-before-write port semantics); under write_first the
            # same cycle's write is forwarded too, hence <= t
            result = self.banks.read_slots(port, r_slots)
            if w_slots is not None:
                write_first = self.collision_policy == "write_first"
                if last_t is not None:
                    wt = last_t[r_slots]
                    hit = wt <= t_col if write_first else wt < t_col
                    if hit.any():
                        result[hit] = last_val[r_slots[hit]]
                else:
                    bound = t_col + 1 if write_first else t_col
                    kr = (r_slots * (n + 1) + bound).ravel()
                    pos = np.searchsorted(kw_sorted, kr, side="left") - 1
                    clipped = np.maximum(pos, 0)
                    hit = (pos >= 0) & (
                        kw_sorted[clipped] // (n + 1) == r_slots.ravel()
                    )
                    if hit.any():
                        flat = result.reshape(-1)
                        flat[hit] = w_values.ravel()[w_order[clipped[hit]]]
                # like step(), count only writes forwarded to a read of
                # their own cycle (read_first never forwards one)
                if write_first and tel is not None:
                    same_cycle = (
                        wt == t_col
                        if last_t is not None
                        else kw_sorted[clipped] == kr - 1
                    )
                    forwarded = int(np.count_nonzero(same_cycle))
                    if forwarded:
                        tel.metrics.counter("polymem.collision.forwarded").inc(
                            forwarded
                        )
            results[port] = result
            self.read_stats[port].accesses += n
            self.read_stats[port].elements += n * self.lanes
        if w_slots is not None:
            # flattened fancy assignment applies events in cycle order, so
            # duplicate slots resolve to the latest write — last-write-wins
            # without any sort
            self.banks.write_slots(flat_w, w_values.ravel())
            self.write_stats.accesses += n
            self.write_stats.elements += n * self.lanes
        self.cycles += n
        if tel is not None:
            m = tel.metrics
            m.counter("polymem.replay.calls").inc()
            m.counter("polymem.cycles.replay").inc(n)
            m.counter("polymem.parallel_accesses").inc(
                n * (len(reads) + (1 if w_slots is not None else 0))
            )
        return results

    # -- bulk host transfers -------------------------------------------------
    def load(self, matrix: np.ndarray) -> None:
        """Host-side bulk load of the whole 2-D logical space (PCIe path;
        not counted as kernel cycles)."""
        matrix = np.asarray(matrix)
        if matrix.shape != (self.rows, self.cols):
            raise PatternError(
                f"load expects a {self.rows}x{self.cols} matrix, got {matrix.shape}"
            )
        ii, jj = np.mgrid[0 : self.rows, 0 : self.cols]
        banks = flat_module_assignment(self.scheme, ii, jj, self.p, self.q)
        addrs = self.addressing(ii, jj)
        flat = np.zeros((self.lanes, self.config.bank_depth), dtype=self.banks.dtype)
        flat[banks, addrs] = matrix
        self.banks.fill(flat)

    def dump(self, port: int = 0) -> np.ndarray:
        """Host-side bulk read-back of the whole logical space."""
        ii, jj = np.mgrid[0 : self.rows, 0 : self.cols]
        banks = flat_module_assignment(self.scheme, ii, jj, self.p, self.q)
        addrs = self.addressing(ii, jj)
        return self.banks.read(port, banks, addrs)

    # -- introspection ------------------------------------------------------
    def reset_stats(self) -> None:
        """Zero the cycle and port counters (not the contents)."""
        self.cycles = 0
        self.write_stats = PortStats()
        self.read_stats = [PortStats() for _ in range(self.read_ports)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PolyMem({self.config.label()}, {self.rows}x{self.cols})"
