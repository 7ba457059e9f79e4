"""The fusion pass: specialized NumPy kernels for compiled programs.

Dispatching each :class:`~repro.program.passes.TraceStep` through
:meth:`PolyMem.replay` re-derives the same anchor-dependent machinery on
every execution: the slot-index tables of
each stream, the validity masks, and the read/write collision structure
(a dense last-writer table or an event sort).  For a program that is
executed more than once — parameter sweeps, benchmark repetitions, a
kernel re-issuing the same access shapes — that derivation is pure
overhead: none of it depends on the *data*, only on the anchors and the
memory geometry.

:func:`fusion_plan` is the pattern-matching pass that removes it.  It
walks the compiled segment list, groups adjacent segments inside
barrier-free regions, and specializes each group against the concrete
memories into a *group kernel*:

* every step's fancy-index tables (``slots``, validity, and the
  collision-forwarding gather/scatter indices) are precomputed once;
* runs of adjacent read-only steps on one memory with one port layout
  collapse into a single fused gather (their tables concatenate — even
  across stride or kind changes the trace coalescer must split on);
* write steps become one gather + precomputed forwarding assignment +
  one scatter;
* anything the fast path cannot prove bit-identical — invalid cycles,
  out-of-range ports, describe-only writes, ``forbid``-policy same-cycle
  collisions, empty steps — stays on the
  :meth:`~repro.core.polymem.PolyMem.replay` path, so error behaviour,
  partial state and cycle accounting are exact.  Each such step records
  why (one of :data:`FALLBACK_REASONS`), surfaced by
  :meth:`FusionPlan.summary` and the ``program.fusion.fallback.<reason>``
  telemetry counters.

Group kernels are cached content-addressed in the module-level
:data:`kernel_cache`, keyed the way :mod:`repro.exec.cache` keys sweep
results: a SHA-256 over a canonical header (memory geometry, collision
policy, per-step access structure with each stream's pattern families,
write-value shapes) plus the raw anchor bytes and per-access family
codes of every stream's :class:`~repro.core.plan.AccessBlock`.  Two
executions of structurally identical programs — same
anchors, same geometry, any data — share one kernel.

Specialization is per ``(scheme, lane grid, collision policy)`` by
construction: all three are part of the key, and the precomputed
forwarding indices bake the policy's visibility rule in.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from typing import Any, Mapping

import numpy as np

from ..core.exceptions import PolyMemError
from ..core.plan import AccessTrace, forward_indices
from ..telemetry import context as _telemetry

__all__ = [
    "FALLBACK_REASONS",
    "FusionPlan",
    "KernelCache",
    "fusion_plan",
    "kernel_cache",
]

#: version tag of the kernel-key format; bump on any change to the key
#: header or the cached kernel structure
KEY_FORMAT = "repro.program.fuse/3"

_MISS = object()

#: why a step stays on the replay path instead of a fused kernel
FALLBACK_REASONS = (
    "empty_trace",          # replay's zero-cycle path charges nothing
    "port_out_of_range",    # replay raises the exact PortError
    "invalid_cycle",        # out-of-bounds or conflicting access
    "describe_only_write",  # no values: execution raises ProgramError
    "lane_width_mismatch",  # replay raises the write-shape PatternError
    "forbid_collision",     # same-cycle read/write under "forbid"
    "plan_error",           # the plan tables raised a PolyMemError
)


class KernelCache:
    """A small LRU of compiled group kernels, content-addressed by key.

    Kernels hold only geometry-derived index tables (never data), so a
    hit is valid for any memory contents; the LRU bound keeps the large
    precomputed tables of one-shot programs from accumulating.
    """

    def __init__(self, maxsize: int = 64):
        self.maxsize = maxsize
        self._entries: OrderedDict[str, tuple] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str):
        entry = self._entries.get(key, _MISS)
        tel = _telemetry.active()
        if entry is _MISS:
            self.misses += 1
            if tel is not None:
                tel.metrics.counter("program.fusion.kernel_cache.misses").inc()
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        if tel is not None:
            tel.metrics.counter("program.fusion.kernel_cache.hits").inc()
        return entry

    def put(self, key: str, kernel) -> None:
        self._entries[key] = kernel
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1

    def ensure(self, key: str, build) -> tuple:
        """The kernel under *key*, building (and caching) it on a miss.

        Returns ``(kernel, hit)``.
        """
        kernel = self.get(key)
        if kernel is not None:
            return kernel, True
        kernel = build()
        self.put(key, kernel)
        return kernel, False

    def clear(self) -> None:
        self._entries.clear()
        self.hits = self.misses = self.evictions = 0

    def stats(self) -> dict:
        return {
            "size": len(self._entries),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


#: the process-wide kernel cache (mirrors the plan cache's sharing model)
kernel_cache = KernelCache()


# ---------------------------------------------------------------------------
# content-addressed group keys


def _block_token(block, blobs: list) -> list:
    """*block*'s header entry, its families; the anchor and per-access
    code bytes join *blobs*."""
    blobs.append(block.anchors_i)
    blobs.append(block.anchors_j)
    if block.codes is not None:
        blobs.append(block.codes)
    return [[kind.value, stride] for kind, stride in block.families]


def _span_token(start: int, stop: int, src) -> list:
    if src is None:
        return [start, stop, "none"]
    if callable(src):
        return [start, stop, "callable"]
    # concrete value *shapes* classify the kernel (the lane-width check
    # happens at build time); the data itself never enters the key
    return [start, stop, "array", list(np.asarray(src).shape)]


def group_key(segments, mems: Mapping[str, Any]) -> str:
    """The content address of one barrier-free segment group.

    SHA-256 over a canonical JSON header — memory geometry + collision
    policy per memory, access structure per step (each stream's pattern
    families) — followed by the raw anchor bytes and per-access family
    codes of every stream, mirroring how ``repro.exec.cache`` derives
    sweep keys.
    """
    header: dict = {"format": KEY_FORMAT, "mems": {}, "segments": []}
    blobs: list[np.ndarray] = []

    for name in sorted({s.mem for seg in segments for s in seg.steps}):
        pm = mems[name]
        header["mems"][name] = [
            pm.rows, pm.cols, pm.p, pm.q, str(pm.scheme),
            pm.collision_policy, pm.read_ports,
            str(pm.banks.dtype), int(pm.banks.bank_depth),
        ]
    for seg in segments:
        seg_desc = []
        for step in seg.steps:
            reads_desc = [
                [port, _block_token(block, blobs)]
                for port, block in step.reads.items()
            ]
            write_desc = None
            if step.write is not None:
                block, spans = step.write
                write_desc = [
                    _block_token(block, blobs),
                    [_span_token(*span) for span in spans],
                ]
            seg_desc.append([step.mem, step.n, reads_desc, write_desc])
        header["segments"].append(seg_desc)
    h = hashlib.sha256()
    h.update(json.dumps(header, sort_keys=True, separators=(",", ":")).encode())
    for blob in blobs:
        h.update(b"\0")
        h.update(blob.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# kernel construction


class _StepTables:
    """Precomputed index tables for one fusable write-bearing step.

    ``reads`` maps each port to its ``(n, lanes)`` slot table;
    ``w_slots`` is the flattened write-slot table (last-write-wins under
    flat fancy assignment, exactly like replay's scatter); ``forwards``
    maps ports to ``(flat_result_index, flat_value_index, same_cycle)``:
    the gather pairs implementing the collision policy's same-trace write
    visibility, and how many of them forward a write of the read's own
    cycle (what ``polymem.collision.forwarded`` counts).
    """

    __slots__ = ("reads", "w_slots", "forwards")

    def __init__(self, reads, w_slots, forwards):
        self.reads = reads
        self.w_slots = w_slots
        self.forwards = forwards


def _classify_step(step, pm):
    """Build the fast-path tables for *step*, or name why it stays on the
    replay path.

    Returns ``("reads", tables)`` for a fusable read-only step (joinable
    into a gather run), ``("write", _StepTables)`` for a fusable step
    with a write stream, or ``("replay", reason)`` with *reason* one of
    :data:`FALLBACK_REASONS`.
    """
    n = step.n
    if n == 0:
        return ("replay", "empty_trace")
    for port in step.reads:
        if not 0 <= port < pm.read_ports:
            return ("replay", "port_out_of_range")
    try:
        bad = np.zeros(n, dtype=bool)
        read_tabs = {}
        for port, block in step.reads.items():
            slots, valid = block.tables(pm.plan)
            bad |= ~valid
            read_tabs[port] = slots
        if step.write is None:
            if bad.any():
                return ("replay", "invalid_cycle")
            return ("reads", read_tabs)
        block, spans = step.write
        if any(src is None for _, _, src in spans):
            return ("replay", "describe_only_write")
        w_slots, w_valid = block.tables(pm.plan)
        bad |= ~w_valid
    except PolyMemError:
        return ("replay", "plan_error")
    if step.concrete:
        w = step.write_values({})
        if w.shape[1] != pm.lanes:
            return ("replay", "lane_width_mismatch")
    if bad.any():
        return ("replay", "invalid_cycle")
    forwards = forward_indices(read_tabs, w_slots, pm)
    if forwards is None:
        return ("replay", "forbid_collision")
    return ("write", _StepTables(read_tabs, w_slots.ravel(), forwards))


def _build_group_kernel(segments, mems: Mapping[str, Any]) -> tuple:
    """Specialize one segment group: a tuple of per-segment unit lists.

    Units are ``("run", step_indices, {port: concatenated_slots})`` for a
    fused read gather, ``("write", step_index, _StepTables)`` for a fused
    read+write step, or ``("replay", step_index, reason)`` for the
    replay path.
    """
    kernel = []
    for seg in segments:
        units: list[tuple] = []
        run: list[tuple[int, dict]] = []  # (step index, read tables)
        run_mem = run_ports = None

        def flush_run() -> None:
            nonlocal run, run_mem, run_ports
            if not run:
                return
            cat = {
                port: np.ascontiguousarray(
                    np.concatenate([tabs[port] for _, tabs in run])
                )
                for port in run_ports
            }
            units.append(("run", tuple(idx for idx, _ in run), cat))
            run, run_mem, run_ports = [], None, None

        for idx, step in enumerate(seg.steps):
            tag, payload = _classify_step(step, mems[step.mem])
            if tag != "reads":  # a write step's tables or a replay reason
                flush_run()
                units.append((tag, idx, payload))
                continue
            ports = tuple(payload)
            if run and (step.mem != run_mem or ports != run_ports):
                flush_run()
            if not run:
                run_mem, run_ports = step.mem, ports
            run.append((idx, payload))
        flush_run()
        kernel.append(tuple(units))
    return tuple(kernel)


# ---------------------------------------------------------------------------
# the plan: grouped segments bound to their kernels


def _split_groups(segments) -> list[list]:
    """Maximal barrier-free segment runs (a Barrier boundary closes one).

    Compute boundaries do *not* split groups — host work between accesses
    is inlined into the group's execution, index tables intact."""
    from .ir import Barrier

    groups: list[list] = []
    current: list = []
    for seg in segments:
        current.append(seg)
        if isinstance(seg.boundary, Barrier):
            groups.append(current)
            current = []
    if current:
        groups.append(current)
    return groups


class FusionPlan:
    """A compiled program's segments bound to specialized group kernels."""

    __slots__ = (
        "units", "n_groups", "n_fused_steps", "n_fallback_steps",
        "fallback_reasons", "cache_hits", "cache_misses",
    )

    def __init__(self, units, n_groups, cache_hits, cache_misses):
        self.units = units  # dict: segment index -> unit tuple
        self.n_groups = n_groups
        self.cache_hits = cache_hits
        self.cache_misses = cache_misses
        self.n_fused_steps = 0
        self.n_fallback_steps = 0
        self.fallback_reasons: dict[str, int] = {}
        for seg_units in units.values():
            for unit in seg_units:
                if unit[0] == "replay":
                    self.n_fallback_steps += 1
                    reason = unit[2]
                    self.fallback_reasons[reason] = (
                        self.fallback_reasons.get(reason, 0) + 1
                    )
                elif unit[0] == "run":
                    self.n_fused_steps += len(unit[1])
                else:
                    self.n_fused_steps += 1

    @property
    def n_fused_segments(self) -> int:
        """Segments with at least one fused (non-fallback) step."""
        return sum(
            1
            for seg_units in self.units.values()
            if any(unit[0] != "replay" for unit in seg_units)
        )

    def summary(self) -> dict:
        """Plain-JSON fusion statistics (what ``program dump`` prints)."""
        return {
            "groups": self.n_groups,
            "fused_segments": self.n_fused_segments,
            "fused_steps": self.n_fused_steps,
            "fallback_steps": self.n_fallback_steps,
            "fallback_reasons": dict(sorted(self.fallback_reasons.items())),
            "kernel_cache": {
                "plan_hits": self.cache_hits,
                "plan_misses": self.cache_misses,
                **kernel_cache.stats(),
            },
        }

    # -- execution ----------------------------------------------------------
    @staticmethod
    def _publish(step, outputs, env, tel) -> None:
        for tag, port, start, stop in step.bindings:
            env[tag] = outputs[port][start:stop]
        if tel is not None:
            m = tel.metrics
            m.counter("program.traces").inc()
            m.counter("program.trace_cycles").inc(step.n)

    def run_segment(self, segment, mems, env, tel) -> None:
        """Execute one segment's steps through its kernel units, recording
        into the telemetry session *tel* (``None`` when off).

        Bit-identical to replaying every step through
        :meth:`PolyMem.replay`: same outputs, bindings, memory state,
        statistics, error behaviour and telemetry — fused units only skip
        the per-execution re-derivation of index tables and collision
        structure.
        """
        for unit in self.units[segment.index]:
            if unit[0] == "replay":
                step = segment.steps[unit[1]]
                mem = mems[step.mem]
                outputs = mem.replay(step.trace(env))
                self._publish(step, outputs, env, tel)
            elif unit[0] == "run":
                _, indices, cat = unit
                mem = mems[segment.steps[indices[0]].mem]
                gathered = {
                    port: mem.banks.read_slots(port, slots)
                    for port, slots in cat.items()
                }
                offset = 0
                for idx in indices:
                    step = segment.steps[idx]
                    outputs = {
                        port: g[offset:offset + step.n]
                        for port, g in gathered.items()
                    }
                    offset += step.n
                    mem.account_fused(step.n, step.reads, False, tel)
                    self._publish(step, outputs, env, tel)
            else:
                _, idx, tables = unit
                step = segment.steps[idx]
                mem = mems[step.mem]
                # resolving late-bound values can raise ProgramError —
                # at the same point replay would (trace build)
                values = step.write_values(env)
                if values.shape[1] != mem.lanes:
                    self._replay_resolved(step, values, mem)
                    raise AssertionError(  # pragma: no cover - replay raises
                        "lane-width mismatch survived serial re-issue"
                    )
                flat_values = values.ravel()
                outputs = {}
                for port, r_slots in tables.reads.items():
                    result = mem.banks.read_slots(port, r_slots)
                    fwd = tables.forwards.get(port)
                    if fwd is not None:
                        result.reshape(-1)[fwd[0]] = flat_values[fwd[1]]
                        if fwd[2] and tel is not None:
                            tel.metrics.counter(
                                "polymem.collision.forwarded"
                            ).inc(fwd[2])
                    outputs[port] = result
                mem.banks.write_slots(tables.w_slots, flat_values)
                mem.account_fused(step.n, step.reads, True, tel)
                self._publish(step, outputs, env, tel)

    @staticmethod
    def _replay_resolved(step, values, mem) -> None:
        """Re-issue a lane-width-mismatched write through replay's serial
        error path, with the already-resolved values (callables are only
        invoked once, as on the replay path)."""
        trace = AccessTrace()
        for port, block in step.reads.items():
            trace.add(block, port)
        mem.replay(trace.add(step.write[0].with_values(values)))


def fusion_plan(compiled, mems: Mapping[str, Any]) -> FusionPlan:
    """Specialize *compiled* against *mems*: the engine's fast path.

    Groups the segment list at barriers, fetches (or builds and caches)
    each group's kernel from :data:`kernel_cache`, and returns the
    :class:`FusionPlan` the engine drives segment by segment.
    """
    units: dict[int, tuple] = {}
    hits = misses = 0
    groups = _split_groups(compiled.segments)
    for group in groups:
        key = group_key(group, mems)
        kernel, hit = kernel_cache.ensure(
            key, lambda g=group: _build_group_kernel(g, mems)
        )
        if hit:
            hits += 1
        else:
            misses += 1
        for seg, seg_units in zip(group, kernel):
            units[seg.index] = seg_units
    plan = FusionPlan(units, len(groups), hits, misses)
    tel = _telemetry.active()
    if tel is not None:
        m = tel.metrics
        m.counter("program.fusion.groups").inc(plan.n_groups)
        m.counter("program.fusion.segments").inc(plan.n_fused_segments)
        m.counter("program.fusion.steps").inc(plan.n_fused_steps)
        m.counter("program.fusion.fallback_steps").inc(plan.n_fallback_steps)
        for reason, count in plan.fallback_reasons.items():
            m.counter(f"program.fusion.fallback.{reason}").inc(count)
    return plan

