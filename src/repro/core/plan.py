"""Compiled access plans: the anchor-invariant half of a parallel access.

In hardware (paper Fig. 3) the AGU, the module-assignment block ``M``, the
addressing function ``A`` and the shuffle routing are *fixed combinational
logic* — their structure is paid for once, at synthesis time, and every
cycle merely applies a new anchor to it.  The software model used to pay
the full derivation cost per access: a fresh AGU expansion, a MAF
evaluation over ``p*q`` coordinates, a conflict check and a
permutation-validated shuffle, per ``step()``.

:func:`compile_plan` performs that derivation once per
``(rows, cols, p, q, scheme, kind, stride)`` key and caches the result.
The insight making this exact (not approximate) is that every MAF of
:mod:`repro.core.schemes` is periodic in each coordinate with period
``P = p * q``, and the addressing function splits into an anchor *base*
plus a residue-indexed *delta*:

* ``bank(i + di[k], j + dj[k])`` depends only on ``(i mod P, j mod P)``
  — tabulated as ``bank_table[P, P, lanes]``;
* ``A(i + di, j + dj) = (i div p) * (M/q) + (j div q)
  + addr_delta[i mod p, j mod q]`` exactly (floored division), because
  ``(x + d) div m = x div m + ((x mod m) + d) div m``;
* conflict-freedom of the whole access is a property of the anchor
  residue — tabulated as ``ok[P, P]``;
* the lane→bank permutation's inverse (``lane_of_bank``) is tabulated
  alongside, so shuffle routing is a gather instead of a validated
  scatter.

Applying an anchor therefore costs a handful of vectorized mods, adds and
table gathers — for one access *or for a whole trace of them at once*.
:class:`AccessTrace` packages such a trace (multi-port reads plus a write
stream, optionally with heterogeneous pattern kinds) for
:meth:`repro.core.polymem.PolyMem.replay`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..telemetry import context as _telemetry
from .agu import AccessRequest
from .exceptions import PatternError, PortError
from .patterns import PatternKind, pattern_offsets
from .schemes import Scheme, flat_module_assignment

__all__ = [
    "AccessBlock",
    "AccessPlan",
    "AccessTrace",
    "compile_plan",
    "compile_plan_batch",
    "forward_indices",
    "plan_cache_stats",
]

#: every plan family ever compiled in this process.  Appended on cache
#: *misses* only (the memoized body runs once per key), so
#: :func:`compile_plan_batch` uses it to skip families already built.
_compiled_keys: dict[tuple, None] = {}

#: plans pre-built by :func:`compile_plan_batch`, waiting to be adopted by
#: the memoized :func:`compile_plan` body (which pops them on its next
#: miss for the key).  Never more than one batch's worth of entries live.
_batch_built: dict[tuple, "AccessPlan"] = {}


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class AccessPlan:
    """The anchor-invariant pieces of one ``(shape, stride)`` access family.

    Instances are immutable and shared (see :func:`compile_plan`); all
    array fields are read-only.  ``bank_table`` / ``lane_of_bank`` are
    stored as ``int16`` (lane counts are tiny) — cast before arithmetic.
    """

    rows: int
    cols: int
    p: int
    q: int
    scheme: Scheme
    kind: PatternKind
    stride: int
    #: lane-relative coordinate offsets, length ``p*q``
    di: np.ndarray = field(repr=False)
    dj: np.ndarray = field(repr=False)
    #: inclusive valid anchor ranges (empty when ``i_hi < i_lo``)
    i_lo: int = 0
    i_hi: int = 0
    j_lo: int = 0
    j_hi: int = 0
    #: MAF periodicity in each anchor coordinate (= ``p * q``)
    period: int = 0
    #: per-lane flat bank id for each anchor residue, ``(P, P, lanes)``
    bank_table: np.ndarray = field(default=None, repr=False)
    #: inverse permutation per residue: ``lane_of_bank[ri, rj, b]`` is the
    #: lane whose element lands in bank ``b`` (garbage where ``~ok``)
    lane_of_bank: np.ndarray = field(default=None, repr=False)
    #: conflict-free anchor residues, ``(P, P)`` bool
    ok: np.ndarray = field(default=None, repr=False)
    #: residue part of the in-bank address, ``(p, q, lanes)``
    addr_delta: np.ndarray = field(default=None, repr=False)
    #: fused residue table ``bank * bank_depth + addr_delta``, shaped
    #: ``(P, P, lanes)`` — flat slot ids are one gather plus the base add
    slot_delta: np.ndarray = field(default=None, repr=False)
    blocks_per_row: int = 0
    bank_depth: int = 0

    @property
    def lanes(self) -> int:
        return self.p * self.q

    # -- single-anchor application ---------------------------------------
    def fits(self, i: int, j: int) -> bool:
        """Whether the access anchored at (i, j) stays inside the space."""
        return self.i_lo <= i <= self.i_hi and self.j_lo <= j <= self.j_hi

    def conflict_free(self, i: int, j: int) -> bool:
        """O(1) conflict check from the residue table."""
        return bool(self.ok[i % self.period, j % self.period])

    def banks(self, i: int, j: int) -> np.ndarray:
        """Per-lane bank ids at anchor (i, j) (read-only table row)."""
        return self.bank_table[i % self.period, j % self.period]

    def inverse_permutation(self, i: int, j: int) -> np.ndarray:
        """``lane_of_bank`` row at anchor (i, j); only valid where
        :meth:`conflict_free` holds."""
        return self.lane_of_bank[i % self.period, j % self.period]

    def addrs(self, i: int, j: int) -> np.ndarray:
        """Per-lane in-bank addresses at anchor (i, j): base + delta."""
        base = (i // self.p) * self.blocks_per_row + (j // self.q)
        return base + self.addr_delta[i % self.p, j % self.q]

    # -- batched application ---------------------------------------------
    def fits_mask(self, anchors_i: np.ndarray, anchors_j: np.ndarray) -> np.ndarray:
        """Per-anchor in-bounds mask."""
        return (
            (anchors_i >= self.i_lo)
            & (anchors_i <= self.i_hi)
            & (anchors_j >= self.j_lo)
            & (anchors_j <= self.j_hi)
        )

    def ok_mask(self, anchors_i: np.ndarray, anchors_j: np.ndarray) -> np.ndarray:
        """Per-anchor conflict-freedom mask."""
        return self.ok[anchors_i % self.period, anchors_j % self.period]

    def banks_many(self, anchors_i: np.ndarray, anchors_j: np.ndarray) -> np.ndarray:
        """``(B, lanes)`` bank ids (int16 table gather)."""
        return self.bank_table[anchors_i % self.period, anchors_j % self.period]

    def addrs_many(self, anchors_i: np.ndarray, anchors_j: np.ndarray) -> np.ndarray:
        """``(B, lanes)`` in-bank addresses."""
        base = (anchors_i // self.p) * self.blocks_per_row + (anchors_j // self.q)
        return base[:, None] + self.addr_delta[anchors_i % self.p, anchors_j % self.q]

    def slots_many(self, anchors_i: np.ndarray, anchors_j: np.ndarray) -> np.ndarray:
        """``(B, lanes)`` flat ``bank * depth + address`` slot ids.

        One fused-table gather plus the anchor-base add — the whole-trace
        replay path lives on this."""
        base = (anchors_i // self.p) * self.blocks_per_row + (anchors_j // self.q)
        return base[:, None] + self.slot_delta[
            anchors_i % self.period, anchors_j % self.period
        ]


@lru_cache(maxsize=256)
def compile_plan(
    rows: int,
    cols: int,
    p: int,
    q: int,
    scheme: Scheme,
    kind: PatternKind,
    stride: int = 1,
) -> AccessPlan:
    """Compile (and memoize) the :class:`AccessPlan` for one access family.

    The cache is process-wide: every PolyMem instance with the same
    geometry shares the same compiled tables (they are immutable).  The
    LRU bound (256) is sized to hold every plan family the validated
    Table III sweep touches (~112) plus runtime extras, so a repeated
    sweep in one process compiles nothing.
    """
    kind = PatternKind(kind)
    scheme = Scheme(scheme)
    _compiled_keys[(rows, cols, p, q, scheme, kind, stride)] = None
    prebuilt = _batch_built.pop((rows, cols, p, q, scheme, kind, stride), None)
    if prebuilt is not None:
        return prebuilt
    return _build_family(p, q, scheme, kind, stride, [(rows, cols)])[0]


def _build_family(p, q, scheme, kind, stride, geometries) -> list[AccessPlan]:
    """The plans of one residue core ``(p, q, scheme, kind, stride)`` on
    each ``(rows, cols)`` of *geometries*: the bank, conflict and
    inverse-permutation tables depend on the core alone and are built
    once, read-only and shared; the address tables are linear in the
    geometry (``addr_delta = A * blocks_per_row + B``)."""
    di, dj = pattern_offsets(kind, p, q, stride)
    period = p * q
    res = np.arange(period, dtype=np.int64)
    # (P, 1, L) x (1, P, L) broadcast: every MAF mixes i and j terms
    ii = res[:, None, None] + di[None, None, :]
    jj = res[None, :, None] + dj[None, None, :]
    bank_table = flat_module_assignment(scheme, ii, jj, p, q)
    bank_table = np.broadcast_to(
        bank_table, (period, period, p * q)
    ).astype(np.int16)
    sorted_b = np.sort(bank_table, axis=-1)
    ok = ~(sorted_b[..., 1:] == sorted_b[..., :-1]).any(axis=-1)
    if p * q == 1:
        ok = np.ones((period, period), dtype=bool)
    # argsort of a permutation row is its inverse; stable sort keeps the
    # result deterministic on conflicting (non-permutation) rows too
    lane_of_bank = np.argsort(bank_table, axis=-1, kind="stable").astype(np.int16)
    rp = np.arange(p, dtype=np.int64)
    rq = np.arange(q, dtype=np.int64)
    delta_a = (rp[:, None, None] + di[None, None, :]) // p
    delta_b = (rq[None, :, None] + dj[None, None, :]) // q
    bank64 = bank_table.astype(np.int64)
    res_p = res[:, None] % p
    res_q = res[None, :] % q
    bank_table = _readonly(np.ascontiguousarray(bank_table))
    lane_of_bank = _readonly(np.ascontiguousarray(lane_of_bank))
    ok = _readonly(ok)
    plans = []
    for rows, cols in geometries:
        blocks_per_row = cols // q
        addr_delta = delta_a * blocks_per_row + delta_b
        bank_depth = (rows // p) * blocks_per_row
        slot_delta = bank64 * bank_depth + addr_delta[res_p, res_q]
        plans.append(
            AccessPlan(
                rows=rows,
                cols=cols,
                p=p,
                q=q,
                scheme=scheme,
                kind=kind,
                stride=stride,
                di=di,
                dj=dj,
                i_lo=int(-di.min()) if di.size else 0,
                i_hi=rows - 1 - int(di.max()) if di.size else rows - 1,
                j_lo=int(-dj.min()) if dj.size else 0,
                j_hi=cols - 1 - int(dj.max()) if dj.size else cols - 1,
                period=period,
                bank_table=bank_table,
                lane_of_bank=lane_of_bank,
                ok=ok,
                addr_delta=_readonly(addr_delta),
                slot_delta=_readonly(np.ascontiguousarray(slot_delta)),
                blocks_per_row=blocks_per_row,
                bank_depth=bank_depth,
            )
        )
    return plans


def _normalize_plan_key(key) -> tuple:
    rows, cols, p, q, scheme, kind, *rest = key
    stride = int(rest[0]) if rest else 1
    return (
        int(rows), int(cols), int(p), int(q),
        Scheme(scheme), PatternKind(kind), stride,
    )


def compile_plan_batch(keys) -> dict[tuple, AccessPlan]:
    """Compile a whole grid of plan families in shared broadcast passes.

    *keys* are ``(rows, cols, p, q, scheme, kind[, stride])`` tuples as
    accepted by :func:`compile_plan`.  Families not yet resident are
    grouped by their residue *core* ``(p, q, scheme, kind, stride)``: the
    bank/ok/inverse-permutation tables depend only on the core (every MAF
    is periodic with period ``P = p * q``, independent of the geometry),
    so one residue build covers every ``(rows, cols)`` member of the core
    (:func:`_build_family`, the scalar body's own builder: bit-identical
    tables, the members sharing the read-only residue arrays).

    Each pre-built plan is adopted by the memoized :func:`compile_plan`
    (its body pops :data:`_batch_built` on the miss), so batch-built
    families land in the same process-wide LRU with the same miss
    accounting — single-config callers are unaffected and later scalar
    lookups hit.  Returns ``{normalized key: plan}`` for every input key.
    """
    normd = [_normalize_plan_key(k) for k in keys]
    fresh = [k for k in dict.fromkeys(normd) if k not in _compiled_keys]
    by_core: dict[tuple, list[tuple]] = {}
    for k in fresh:
        rows, cols, p, q, scheme, kind, stride = k
        by_core.setdefault((p, q, scheme, kind, stride), []).append(k)
    for (p, q, scheme, kind, stride), members in by_core.items():
        geometries = [(rows, cols) for rows, cols, *_ in members]
        plans = _build_family(p, q, scheme, kind, stride, geometries)
        _batch_built.update(zip(members, plans))
    if fresh:
        tel = _telemetry.active()
        if tel is not None:
            tel.metrics.counter("polymem.plan_batch.families").inc(len(fresh))
            tel.metrics.counter("polymem.plan_batch.cores").inc(len(by_core))
    return {k: compile_plan(*k) for k in dict.fromkeys(normd)}


def plan_cache_stats() -> dict:
    """Process-wide plan-cache accounting as plain JSON."""
    info = compile_plan.cache_info()
    return {
        "hits": info.hits,
        "misses": info.misses,
        "size": info.currsize,
        "maxsize": info.maxsize,
    }


def _as_anchor_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise PatternError(f"{name} anchors must be a 1-D integer array")
    return arr


class AccessBlock:
    """A block of parallel accesses on one port: the typed form of every
    access stream.

    A block holds ``n`` consecutive accesses: the anchor arrays
    ``anchors_i`` / ``anchors_j``, the pattern family ``(kind, stride)``
    of each access and, for writes, the ``(n, lanes)`` ``values``
    matrix (each access's ``DataIn``).  ``families`` lists the distinct
    families in first-use order; ``codes`` is ``None`` when there is one
    family, else the int64 per-access index into ``families``.  Program
    ops, their compiled trace steps, fused-kernel keys, access traces
    and the MAX-PolyMem command streams all carry this form, so a run of
    accesses costs a few arrays, not one Python object each.

    >>> block = AccessBlock("row", [0, 1], [0, 0], stride=2)
    >>> len(block), block.request(1)
    (2, AccessRequest(kind=<PatternKind.ROW: 'row'>, i=1, j=0, stride=2))
    """

    __slots__ = ("families", "codes", "anchors_i", "anchors_j", "values")

    def __init__(self, kind, anchors_i, anchors_j, stride=1, values=None):
        ai = _as_anchor_array(anchors_i, "i")
        aj = _as_anchor_array(anchors_j, "j")
        if ai.shape != aj.shape:
            raise PatternError("anchor arrays must be equal-length 1-D")
        n = ai.size
        if isinstance(kind, (PatternKind, str)):
            kinds, codes = (PatternKind(kind),), None
        else:
            seq = [PatternKind(k) for k in kind]
            if len(seq) != n:
                raise PatternError(
                    f"per-cycle kinds: got {len(seq)} kinds for {n} anchors"
                )
            kinds = tuple(dict.fromkeys(seq))
            codes = None
            if len(kinds) != 1:
                index = {k: c for c, k in enumerate(kinds)}
                codes = np.fromiter(
                    (index[k] for k in seq), dtype=np.int64, count=n
                )
        if stride < 1:
            raise PatternError(f"stride must be >= 1, got {stride}")
        self._set(tuple((k, int(stride)) for k in kinds), codes, ai, aj, None)
        if values is not None:
            self.values = self._checked_values(values)

    def _set(self, families, codes, anchors_i, anchors_j, values) -> None:
        self.families, self.codes = families, codes
        self.anchors_i, self.anchors_j = anchors_i, anchors_j
        self.values = values

    def _checked_values(self, values) -> np.ndarray:
        values = np.asarray(values)
        if values.ndim != 2 or values.shape[0] != len(self):
            raise PatternError(
                f"write values must be (n, lanes) = ({len(self)}, ...), "
                f"got shape {values.shape}"
            )
        return values

    def with_values(self, values) -> "AccessBlock":
        """These accesses carrying the ``(n, lanes)`` write *values*."""
        block = AccessBlock.__new__(AccessBlock)
        block._set(self.families, self.codes, self.anchors_i, self.anchors_j,
                   self._checked_values(values))
        return block

    @classmethod
    def concat(cls, blocks) -> "AccessBlock":
        """*blocks* back to back as one block, which keeps ``values``
        only when every part carries them (no parts: the empty block)."""
        blocks = [b for b in blocks if len(b)]
        if not blocks:
            return cls((), (), ())
        if len(blocks) == 1:
            return blocks[0]
        families = tuple(dict.fromkeys(f for b in blocks for f in b.families))
        codes = None
        if len(families) > 1:
            index = {f: c for c, f in enumerate(families)}
            parts = []
            for b in blocks:
                remap = np.array([index[f] for f in b.families], dtype=np.int64)
                parts.append(
                    np.full(len(b), remap[0]) if b.codes is None else remap[b.codes]
                )
            codes = np.concatenate(parts)
        values = None
        if all(b.values is not None for b in blocks):
            values = np.concatenate([b.values for b in blocks])
        block = cls.__new__(cls)
        block._set(
            families,
            codes,
            np.concatenate([b.anchors_i for b in blocks]),
            np.concatenate([b.anchors_j for b in blocks]),
            values,
        )
        return block

    def __len__(self) -> int:
        return self.anchors_i.size

    def request(self, t: int) -> AccessRequest:
        """Access *t* as the scalar ``step()`` request."""
        kind, stride = self.families[0 if self.codes is None else int(self.codes[t])]
        return AccessRequest(
            kind, int(self.anchors_i[t]), int(self.anchors_j[t]), stride
        )

    def tables(self, plan_of) -> tuple[np.ndarray, np.ndarray]:
        """Expand this block into ``(slots, valid)`` index tables.

        ``plan_of(kind, stride)`` supplies the compiled
        :class:`AccessPlan` for each pattern family (typically
        ``PolyMem.plan``).  ``slots`` holds flat ``bank * depth +
        address`` ids, ``(n, lanes)``; ``valid[t]`` is True when access
        *t* is in bounds and conflict-free.  Slot rows are computed
        unconditionally (the residue tables accept any anchor,
        producing garbage ids on invalid rows), so callers must gate
        memory traffic on ``valid``.
        """
        ai, aj = self.anchors_i, self.anchors_j
        if self.codes is None:
            plan = plan_of(*self.families[0])
            valid = plan.fits_mask(ai, aj) & plan.ok_mask(ai, aj)
            return plan.slots_many(ai, aj), valid
        n = len(self)
        slots = None
        valid = np.empty(n, dtype=bool)
        for code, family in enumerate(self.families):
            m = self.codes == code
            if not m.any():
                continue
            mi, mj = ai[m], aj[m]
            plan = plan_of(*family)
            if slots is None:
                slots = np.empty((n, plan.lanes), dtype=np.int64)
            valid[m] = plan.fits_mask(mi, mj) & plan.ok_mask(mi, mj)
            slots[m] = plan.slots_many(mi, mj)
        if slots is None:  # zero-length heterogeneous block
            slots = np.empty((0, 0), dtype=np.int64)
        return slots, valid

    def sliced(self, start: int, stop: int) -> "AccessBlock":
        """Accesses ``start..stop`` as a block (array views)."""
        block = AccessBlock.__new__(AccessBlock)
        block._set(
            self.families,
            None if self.codes is None else self.codes[start:stop],
            self.anchors_i[start:stop],
            self.anchors_j[start:stop],
            None if self.values is None else self.values[start:stop],
        )
        return block


def forward_indices(read_tabs, w_slots, pm):
    """Which same-trace write each read element observes: the
    read-after-write resolver of fused program steps and batched
    MAX-PolyMem chunks (:meth:`PolyMem.replay` inlines its own).

    *read_tabs* maps read ports to their ``(n, lanes)`` slot tables and
    *w_slots* is the write stream's ``(n, lanes)`` table, every cycle
    valid (see :meth:`AccessBlock.tables`); *pm* is the
    :class:`~repro.core.polymem.PolyMem` they run on.  Returns, per read
    port that observes any write, the ``(flat_result_index,
    flat_value_index, same_cycle)`` forwards, or ``None`` when a
    ``forbid`` collision must take the serial error path.  An empty dict
    therefore means gathering every read from the pre-trace memory and
    then scattering the writes equals issuing the trace cycle by cycle.

    A read at cycle t sees the latest write to its slot at a cycle < t
    (<= t under ``write_first``; paper §III-B's read-before-write ports
    otherwise).  When no slot is written twice a dense per-slot table
    answers that with one gather; otherwise write events keyed
    ``slot * (n + 1) + cycle`` (unique — one cycle's write slots are
    distinct) are sorted and each read binary-searches its predecessor.
    """
    n, lanes = w_slots.shape
    t_col = np.arange(n, dtype=np.int64)[:, None]
    flat_w = w_slots.ravel()
    forbid = pm.collision_policy == "forbid"
    inclusive = pm.collision_policy == "write_first"
    forwards = {}

    def forward(hit, w_idx):
        r_idx = np.flatnonzero(hit)
        same = 0  # only write_first forwards a write of the read's own cycle
        if inclusive:
            same = int(np.count_nonzero(r_idx // lanes == w_idx // lanes))
        return (r_idx, w_idx, same)

    total_slots = lanes * pm.banks.bank_depth
    if total_slots <= pm.DENSE_SLOT_LIMIT:
        # sentinel flat_w.size: "written after every cycle" (cycle n);
        # int32 halves the table the reads gather from
        order = np.arange(flat_w.size, dtype=np.int32)
        last = np.full(total_slots, flat_w.size, dtype=np.int32)
        last[flat_w] = order
        if np.array_equal(last[flat_w], order):  # no slot written twice
            for port, r_slots in read_tabs.items():
                w_idx = last[r_slots]
                w_t = w_idx // lanes
                if forbid and (w_t == t_col).any():
                    return None
                hit = w_t <= t_col if inclusive else w_t < t_col
                if hit.any():
                    forwards[port] = forward(hit, w_idx[hit])
            return forwards
    kw = (w_slots * (n + 1) + t_col).ravel()
    w_order = np.argsort(kw)
    kw_sorted = kw[w_order]
    if forbid:
        for r_slots in read_tabs.values():
            kr = (r_slots * (n + 1) + t_col).ravel()
            pos = np.minimum(np.searchsorted(kw_sorted, kr), kw_sorted.size - 1)
            if (kw_sorted[pos] == kr).any():
                return None
    bound = t_col + 1 if inclusive else t_col
    for port, r_slots in read_tabs.items():
        kr = (r_slots * (n + 1) + bound).ravel()
        pos = np.searchsorted(kw_sorted, kr, side="left") - 1
        clipped = np.maximum(pos, 0)
        hit = (pos >= 0) & (kw_sorted[clipped] // (n + 1) == r_slots.ravel())
        if hit.any():
            forwards[port] = forward(hit, w_order[clipped[hit]])
    return forwards


class AccessTrace:
    """A trace of parallel accesses for :meth:`PolyMem.replay`.

    One trace describes ``n`` consecutive cycles; each added stream issues
    exactly one access per cycle on its port (reads) or on the write port.
    Replay is bit-identical to issuing cycle ``t``'s accesses with one
    ``step()`` call per cycle, reads in the order the streams were added.

    >>> import numpy as np
    >>> t = AccessTrace().read("row", np.arange(4), np.zeros(4, int))
    >>> t.n
    4
    """

    def __init__(self):
        self._reads: dict[int, AccessBlock] = {}
        self._write: AccessBlock | None = None

    # -- construction ------------------------------------------------------
    def _check_length(self, stream: AccessBlock) -> None:
        if (self._reads or self._write is not None) and len(stream) != self.n:
            raise PatternError(
                f"trace streams must share one length: trace has {self.n} "
                f"cycles, new stream has {len(stream)}"
            )

    def read(self, kind, anchors_i, anchors_j, port: int = 0, stride: int = 1):
        """Add a read stream on *port*; *kind* is one shape or a per-cycle
        sequence of shapes.  Returns the trace (chainable)."""
        return self.add(AccessBlock(kind, anchors_i, anchors_j, stride), port)

    def write(self, kind, anchors_i, anchors_j, values, stride: int = 1):
        """Add the write stream; *values* is the ``(n, lanes)`` data."""
        return self.add(
            AccessBlock(kind, anchors_i, anchors_j, stride, np.asarray(values))
        )

    def add(self, block: AccessBlock, port: int | None = None):
        """Add *block* as the read stream on *port*, or as the write stream
        (a block carrying ``values``) when *port* is ``None``.  Returns the
        trace (chainable)."""
        if port is None and self._write is not None:
            raise PortError("trace already has a write stream")
        if port in self._reads:
            raise PortError(f"trace already has a read stream on port {port}")
        self._check_length(block)
        if port is None:
            self._write = block
        else:
            self._reads[port] = block
        return self

    # -- introspection -----------------------------------------------------
    @property
    def n(self) -> int:
        """Trace length in cycles."""
        for stream in self._reads.values():
            return len(stream)
        return len(self._write) if self._write is not None else 0

    @property
    def read_ports(self) -> tuple[int, ...]:
        return tuple(self._reads)

    @property
    def has_write(self) -> bool:
        return self._write is not None

    # -- replay plumbing (used by PolyMem.replay) --------------------------
    def prefix(self, stop: int) -> "AccessTrace":
        """The first *stop* cycles as a new trace."""
        out = AccessTrace()
        for port, stream in self._reads.items():
            out._reads[port] = stream.sliced(0, stop)
        if self._write is not None:
            out._write = self._write.sliced(0, stop)
        return out

    def cycle_args(self, t: int):
        """Cycle *t* as ``step()`` arguments: ``(reads, write)``."""
        reads = [(port, s.request(t)) for port, s in self._reads.items()]
        write = None
        if self._write is not None:
            write = (self._write.request(t), self._write.values[t])
        return reads, write
