"""Property suite: the program engine vs architectural serial stepping.

``execute(program, polymem)`` claims bit-identical behaviour to issuing
every compiled cycle through ``PolyMem.step()`` one at a time — results,
memory state, cycle/port statistics, error behaviour (type and message)
and the telemetry counters serial stepping also emits.  The engine runs
fused index-table kernels where it can prove them identical and falls
back to ``PolyMem.replay`` per step elsewhere (invalid cycles,
describe-only writes, ``forbid`` collisions, …), recording why.

The suite drives randomized programs — including deliberately invalid
anchors, strides, multi-port reads and every collision policy — through
both paths on twin memories, pins every production lowering (the five
kernels, the schedule executor) to the same serial
reference, checks each fallback reason a program can reach, and
unit-tests the content-addressed kernel cache (reuse across executions,
LRU eviction).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.program.fuse as fuse
from repro.core.config import PolyMemConfig
from repro.core.exceptions import PolyMemError, ProgramError
from repro.core.patterns import PatternKind
from repro.core.polymem import PolyMem
from repro.core.schemes import Scheme
from repro.program import (
    AccessProgram,
    Compute,
    KernelCache,
    compile_program,
    execute,
    fusion_plan,
)
from repro.program.lower import DEMO_NAMES, lower_demo
from repro.telemetry import Telemetry, session

LANE_GRIDS = [(2, 2), (2, 4)]

#: counters both paths emit with identical values; the path-specific ones
#: (polymem.cycles.step vs .fused/.replay, plan-cache traffic,
#: program.fusion.*) are excluded by construction
SHARED_COUNTERS = ("polymem.parallel_accesses", "polymem.collision.forwarded")


def _memory(p, q, scheme, rows, cols, policy, read_ports, seed):
    cfg = PolyMemConfig(
        rows * cols * 8,
        p=p,
        q=q,
        scheme=scheme,
        rows=rows,
        cols=cols,
        read_ports=read_ports,
    )
    pm = PolyMem(cfg, collision_policy=policy)
    rng = np.random.default_rng(seed)
    pm.load(rng.integers(0, 2**63, size=(rows, cols), dtype=np.uint64))
    pm.reset_stats()
    return pm


def _shared_counters(tel):
    counters = tel.snapshot()["metrics"]["counters"]
    return {name: counters.get(name, 0) for name in SHARED_COUNTERS}


def _execute_serial(program, mems):
    """The independent reference: compile, then step() every cycle.

    Returns ``(env, err, cycles, shared_counter_values)``."""
    compiled = compile_program(program)
    env = {}
    start = {name: pm.cycles for name, pm in mems.items()}
    err = None
    tel = Telemetry(label="engine-eq-serial")
    try:
        with session(tel):
            for seg in compiled.segments:
                for step in seg.steps:
                    trace = step.trace(env)
                    pm = mems[step.mem]
                    outs = {port: [] for port in trace.read_ports}
                    for t in range(trace.n):
                        reads, write = trace.cycle_args(t)
                        res = pm.step(reads=reads, write=write)
                        for port in outs:
                            outs[port].append(res[port])
                    outputs = {
                        port: np.stack(vals) if vals
                        else np.empty((0, pm.lanes), dtype=pm.banks.dtype)
                        for port, vals in outs.items()
                    }
                    for tag, port, lo, hi in step.bindings:
                        env[tag] = outputs[port][lo:hi]
                if isinstance(seg.boundary, Compute):
                    product = seg.boundary.fn(env)
                    if isinstance(product, dict):
                        env.update(product)
    except PolyMemError as e:
        err = (type(e), str(e))
    cycles = sum(pm.cycles - start[name] for name, pm in mems.items())
    return env, err, cycles, _shared_counters(tel)


def _run_engine(program, mems):
    """Execute under a private telemetry session; returns
    ``(result, err, shared_counter_values)``."""
    err = None
    res = None
    tel = Telemetry(label="engine-eq-engine")
    try:
        with session(tel):
            res = execute(program, mems)
    except PolyMemError as e:
        err = (type(e), str(e))
    return res, err, _shared_counters(tel)


def _assert_same_state(mems_a, mems_b):
    assert set(mems_a) == set(mems_b)
    for name in mems_a:
        a, b = mems_a[name], mems_b[name]
        assert a.cycles == b.cycles
        assert a.write_stats == b.write_stats
        assert a.read_stats == b.read_stats
        assert np.array_equal(a.dump(), b.dump())


def _assert_same_env(env_a, env_b):
    assert set(env_a) == set(env_b)
    for tag, val in env_a.items():
        other = env_b[tag]
        if isinstance(val, np.ndarray):
            assert np.array_equal(val, other), tag
        else:
            assert np.all(val == other), tag


def _assert_matches_serial(program, mems, ref_program, ref_mems,
                           counters=SHARED_COUNTERS):
    """Run *program* on the engine and *ref_program* serially on twin
    memories; assert every observable agrees (of the telemetry, the
    *counters*).  Returns the engine result."""
    res, err, tel = _run_engine(program, mems)
    env_ref, err_ref, cycles_ref, tel_ref = _execute_serial(ref_program, ref_mems)
    assert err == err_ref
    _assert_same_state(mems, ref_mems)
    assert {c: tel[c] for c in counters} == {c: tel_ref[c] for c in counters}
    if err is None:
        _assert_same_env(res.env, env_ref)
        assert res.report.cycles == cycles_ref
    return res


@st.composite
def program_cases(draw):
    p, q = draw(st.sampled_from(LANE_GRIDS))
    lanes = p * q
    rows = cols = lanes * 4
    scheme = draw(st.sampled_from(list(Scheme)))
    policy = draw(st.sampled_from(PolyMem.COLLISION_POLICIES))
    read_ports = draw(st.integers(1, 2))
    seed = draw(st.integers(0, 2**32))
    n_ops = draw(st.integers(1, 6))
    ops = []
    for _ in range(n_ops):
        choice = draw(
            st.sampled_from(["read", "read", "read", "write", "write",
                             "compute", "barrier"])
        )
        if choice in ("compute", "barrier"):
            ops.append((choice,))
            continue
        n = draw(st.integers(1, 5))
        # mostly valid anchors; -1 and rows-1 exercise the error paths
        # (invalid cycles fall back from fusion to replay)
        anchors = st.lists(
            st.integers(-1, rows - 1), min_size=n, max_size=n
        )
        kinds = st.sampled_from(list(PatternKind))
        # sometimes a per-cycle kind tuple: a heterogeneous stream whose
        # block carries int codes into its families
        kind = draw(st.one_of(kinds, kinds, st.tuples(*[kinds] * n)))
        stride = draw(st.sampled_from([1, 1, 1, 2]))
        ai = np.asarray(draw(anchors), dtype=np.int64)
        aj = np.asarray(draw(anchors), dtype=np.int64)
        if choice == "read":
            port = draw(st.integers(0, read_ports - 1))
            ops.append(("read", kind, ai, aj, port, stride))
        else:
            values = np.random.default_rng(
                draw(st.integers(0, 2**32))
            ).integers(0, 2**63, size=(n, lanes), dtype=np.uint64)
            ops.append(("write", kind, ai, aj, values, stride))
    return (p, q, scheme, rows, cols, policy, read_ports, seed, ops)


@st.composite
def read_write_cases(draw):
    """Programs of fused read+write traces under every collision policy.

    A small anchor range makes overlapping reads and writes, same-cycle
    collisions and rewritten slots common, so both forwarding-table
    builds (dense and event-sorted) and the ``forbid`` fallback run; rows
    and rectangles dominate so most traces are conflict-free and fuse."""
    p, q = draw(st.sampled_from(LANE_GRIDS))
    lanes = p * q
    rows = cols = lanes * 4
    scheme = draw(st.sampled_from(list(Scheme)))
    policy = draw(st.sampled_from(PolyMem.COLLISION_POLICIES))
    read_ports = draw(st.integers(1, 2))
    seed = draw(st.integers(0, 2**32))
    kinds = st.sampled_from(
        [PatternKind.RECTANGLE] * 6 + [PatternKind.ROW] * 2 + list(PatternKind)
    )
    prog = AccessProgram("fuzz-rw")
    for k in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 6))
        anchors = st.lists(st.integers(0, lanes), min_size=n, max_size=n)

        def arr(values):
            return np.asarray(values, dtype=np.int64)

        stride = draw(st.sampled_from([1, 1, 2]))
        prog.read(draw(kinds), arr(draw(anchors)), arr(draw(anchors)),
                  port=draw(st.integers(0, read_ports - 1)), stride=stride,
                  tag=f"t{k}")
        values = np.random.default_rng(draw(st.integers(0, 2**32))).integers(
            0, 2**63, size=(n, lanes), dtype=np.uint64
        )
        prog.write(draw(kinds), arr(draw(anchors)), arr(draw(anchors)),
                   values=values, stride=stride, fuse=True)
    return (p, q, scheme, rows, cols, policy, read_ports, seed), prog


def _build_program(ops):
    prog = AccessProgram("fuzz")
    tag_i = 0
    for op in ops:
        if op[0] == "read":
            _, kind, ai, aj, port, stride = op
            prog.read(kind, ai, aj, port=port, stride=stride,
                      tag=f"t{tag_i}")
            tag_i += 1
        elif op[0] == "write":
            _, kind, ai, aj, values, stride = op
            prog.write(kind, ai, aj, values=values, stride=stride)
        elif op[0] == "compute":
            prog.compute(lambda env: {}, label="nop")
        else:
            prog.barrier()
    return prog


class TestEngineMatchesSerialStepping:
    @given(program_cases())
    @settings(max_examples=80, deadline=None)
    def test_randomized_programs(self, case):
        p, q, scheme, rows, cols, policy, read_ports, seed, ops = case
        args = (p, q, scheme, rows, cols, policy, read_ports, seed)
        prog = _build_program(ops)
        _assert_matches_serial(
            prog, {"default": _memory(*args)}, prog, {"default": _memory(*args)}
        )


    @given(read_write_cases())
    @settings(max_examples=60, deadline=None)
    def test_fused_read_write_traces(self, case):
        args, prog = case
        _assert_matches_serial(
            prog, {"default": _memory(*args)}, prog, {"default": _memory(*args)}
        )


def _forwarded_counts(policy):
    """``polymem.collision.forwarded`` for one three-cycle trace that
    writes rows 0, 1, 2 and reads rows 3, 0, 2 (cycle 1 reads a row
    written earlier in the trace, cycle 2 the row written in the same
    cycle), issued three ways: a ``step`` loop, one ``replay`` and
    ``execute``."""
    aj = np.zeros(3, dtype=np.int64)
    values = np.arange(3 * 8, dtype=np.uint64).reshape(3, 8)
    prog = (
        AccessProgram("forwarded")
        .read(PatternKind.ROW, np.array([3, 0, 2]), aj, tag="r")
        .write(PatternKind.ROW, np.arange(3), aj, values=values, fuse=True)
    )
    args = (2, 4, Scheme.ReRo, 32, 32, policy, 1, 7)
    compiled = compile_program(prog)
    (step,) = compiled.segments[0].steps
    counts = {}
    for path in ("step", "replay", "execute"):
        pm = _memory(*args)
        tel = Telemetry(label=f"forwarded-{path}")
        with session(tel):
            if path == "step":
                trace = step.trace({})
                for t in range(trace.n):
                    reads, write = trace.cycle_args(t)
                    pm.step(reads=reads, write=write)
            elif path == "replay":
                pm.replay(step.trace({}))
            else:
                execute(prog, pm)
        counters = tel.snapshot()["metrics"]["counters"]
        counts[path] = counters.get("polymem.collision.forwarded", 0)
    return counts


class TestForwardedCounter:
    """``polymem.collision.forwarded`` counts same-cycle forwards only,
    on every execution path."""

    def test_read_first_counts_zero(self):
        assert _forwarded_counts("read_first") == {
            "step": 0, "replay": 0, "execute": 0,
        }

    def test_write_first_counts_the_same_cycle_row(self):
        assert _forwarded_counts("write_first") == {
            "step": 8, "replay": 8, "execute": 8,
        }


class TestProductionLowerings:
    """Every caller's real lowering runs bit-identically on both paths."""

    DEMOS = [n for n in DEMO_NAMES if n != "stream_copy"]  # describe-only

    @pytest.mark.parametrize("name", DEMOS)
    def test_demo_engine_matches_serial(self, name):
        prog_a, mems_a = lower_demo(name)
        prog_b, mems_b = lower_demo(name)
        assert _assert_matches_serial(prog_a, mems_a, prog_b, mems_b) is not None

    @pytest.mark.parametrize("name", DEMOS)
    def test_demo_cycle_pin(self, name):
        """The report charges exactly the compiled access cycles."""
        prog, mems = lower_demo(name)
        compiled = compile_program(prog)
        res, err, _ = _run_engine(prog, mems)
        assert err is None
        assert res.report.cycles == compiled.access_cycles

    def test_matmul_demo_is_numerically_right(self):
        from repro.kernels import matmul

        a = np.arange(8 * 8, dtype=np.uint64).reshape(8, 8)
        b = (np.arange(8 * 8, dtype=np.uint64) % 7).reshape(8, 8)
        c, rep = matmul(a, b)
        assert np.array_equal(c, a @ b)
        # 8 ROW accesses for A plus 64 COLUMN accesses for B
        assert rep.cycles == 8 + 64

    def test_schedule_executor_pin(self):
        from repro.schedule import customize, row_trace
        from repro.schedule.executor import execute_schedule

        trace = row_trace(4, 32)
        best = customize(trace, lane_grids=[(2, 4)]).best
        result = execute_schedule(trace, best)
        assert result.covered and result.data_correct
        assert result.matches_prediction


class TestAccessFreePrograms:
    def test_unbound_access_free_program_is_a_program_error(self):
        with pytest.raises(ProgramError, match="'empty'"):
            execute(AccessProgram("empty"), {})

    def test_unbound_compute_only_program_is_a_program_error(self):
        prog = AccessProgram("host").compute(lambda env: {"x": 1})
        with pytest.raises(ProgramError, match="'host'"):
            execute(prog, {})

    def test_compute_only_program_accounts_against_bound_memory(self):
        prog = AccessProgram("host").compute(lambda env: {"x": 1})
        res = execute(prog, _memory(2, 4, Scheme.ReRo, 32, 32, "read_first", 1, 0))
        assert res["x"] == 1
        assert res.report.cycles == 0


def _row(n=1, i=0):
    return (np.full(n, i, dtype=np.int64), np.zeros(n, dtype=np.int64))


def _values(n, lanes=8, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**63, size=(n, lanes), dtype=np.uint64)


def _empty_read():
    return AccessProgram("r").read(PatternKind.ROW, *_row(0), tag="x")


def _port_out_of_range():
    return AccessProgram("r").read(PatternKind.ROW, *_row(), port=1, tag="x")


def _invalid_cycle():
    return AccessProgram("r").read(PatternKind.ROW, *_row(i=-1), tag="x")


def _describe_only_write():
    return AccessProgram("w").write(PatternKind.ROW, *_row())


def _lane_width_mismatch():
    return AccessProgram("w").write(PatternKind.ROW, *_row(), values=_values(1, 9))


def _forbid_collision():
    return (
        AccessProgram("rw")
        .read(PatternKind.ROW, *_row(), tag="x")
        .write(PatternKind.ROW, *_row(), values=_values(1), fuse=True)
    )


class TestFallbackReasons:
    """Every fallback reason a program can reach is recorded, counted,
    and still executes exactly like serial stepping."""

    CASES = [
        ("empty_trace", _empty_read, "read_first"),
        ("port_out_of_range", _port_out_of_range, "read_first"),
        ("invalid_cycle", _invalid_cycle, "read_first"),
        ("lane_width_mismatch", _lane_width_mismatch, "read_first"),
        ("forbid_collision", _forbid_collision, "forbid"),
    ]

    @staticmethod
    def _pm(policy):
        return _memory(2, 4, Scheme.ReRo, 32, 32, policy, 1, 5)

    @pytest.mark.parametrize("reason,make,policy", CASES)
    def test_reason_recorded_and_counted(self, reason, make, policy):
        prog = make()
        plan = fusion_plan(compile_program(prog), {"default": self._pm(policy)})
        assert plan.summary()["fallback_reasons"] == {reason: 1}
        assert plan.n_fallback_steps == 1 and plan.n_fused_steps == 0
        tel = Telemetry(label="fallback-reason")
        with session(tel):
            try:
                execute(prog, self._pm(policy))
            except PolyMemError:
                pass
        counters = tel.snapshot()["metrics"]["counters"]
        assert counters[f"program.fusion.fallback.{reason}"] == 1
        assert counters["program.fusion.fallback_steps"] == 1

    @pytest.mark.parametrize("reason,make,policy", CASES)
    def test_fallback_matches_serial(self, reason, make, policy):
        prog = make()
        _assert_matches_serial(
            prog, {"default": self._pm(policy)}, prog, {"default": self._pm(policy)}
        )

    def test_describe_only_write(self):
        prog = _describe_only_write()
        plan = fusion_plan(compile_program(prog), {"default": self._pm("read_first")})
        assert plan.summary()["fallback_reasons"] == {"describe_only_write": 1}
        with pytest.raises(ProgramError):
            execute(prog, self._pm("read_first"))

    def test_plan_error(self, monkeypatch):
        """Not reachable from a validated program (the IR rejects bad
        strides and anchors first); pinned with a memory whose plan
        lookup raises."""
        pm = self._pm("read_first")

        def broken_plan(kind, stride=1):
            raise PolyMemError("no plan")

        monkeypatch.setattr(pm, "plan", broken_plan)
        prog = AccessProgram("r").read(PatternKind.ROW, *_row(), tag="x")
        plan = fusion_plan(compile_program(prog), {"default": pm})
        assert plan.summary()["fallback_reasons"] == {"plan_error": 1}

    def test_fused_programs_report_no_reasons(self):
        prog = AccessProgram("r").read(PatternKind.ROW, *_row(4), tag="x")
        plan = fusion_plan(compile_program(prog), {"default": self._pm("read_first")})
        assert plan.summary()["fallback_reasons"] == {}
        assert plan.n_fused_steps == 1

    def test_reasons_are_the_documented_set(self):
        covered = {reason for reason, _, _ in self.CASES}
        covered |= {"describe_only_write", "plan_error"}
        assert covered == set(fuse.FALLBACK_REASONS)


def _square_read_program(rows, seed, tag="out"):
    """A fully fusable read+write stream over one memory."""
    rng = np.random.default_rng(seed)
    n = 16
    ai = rng.integers(0, rows, size=n, dtype=np.int64)
    aj = np.zeros(n, dtype=np.int64)
    values = rng.integers(0, 2**63, size=(n, 8), dtype=np.uint64)
    prog = AccessProgram("cache-case")
    prog.read(PatternKind.ROW, ai, aj, tag=tag)
    prog.write(PatternKind.ROW, ai, aj, values=values)
    return prog


class TestKernelCache:
    def _memory(self, seed=7):
        return _memory(2, 4, Scheme.ReRo, 32, 32, "read_first", 1, seed)

    def test_reuse_across_executions(self, monkeypatch):
        cache = KernelCache(maxsize=8)
        monkeypatch.setattr(fuse, "kernel_cache", cache)
        prog = _square_read_program(32, seed=1)
        execute(prog, self._memory())
        assert (cache.hits, cache.misses) == (0, 1)
        # structurally identical program, different data: one hit
        execute(prog, self._memory())
        assert (cache.hits, cache.misses) == (1, 1)

    def test_different_structure_misses(self, monkeypatch):
        cache = KernelCache(maxsize=8)
        monkeypatch.setattr(fuse, "kernel_cache", cache)
        execute(_square_read_program(32, seed=1), self._memory())
        # different anchors -> different content address
        execute(_square_read_program(32, seed=2), self._memory())
        assert (cache.hits, cache.misses) == (0, 2)

    def test_lru_eviction_and_refill(self, monkeypatch):
        cache = KernelCache(maxsize=1)
        monkeypatch.setattr(fuse, "kernel_cache", cache)
        prog_a = _square_read_program(32, seed=1)
        prog_b = _square_read_program(32, seed=2)
        execute(prog_a, self._memory())  # miss, resident
        execute(prog_b, self._memory())  # miss, evicts a
        assert cache.evictions == 1
        assert len(cache) == 1
        # a was evicted: rebuilt (miss), which in turn evicts b
        execute(prog_a, self._memory())
        assert cache.misses == 3 and cache.hits == 0
        assert cache.evictions == 2
        # results stay correct through eviction churn
        _assert_matches_serial(
            prog_a, {"default": self._memory()}, prog_a, {"default": self._memory()}
        )

    def test_kernels_hold_no_data(self, monkeypatch):
        """A cached kernel is valid for any memory contents."""
        cache = KernelCache(maxsize=4)
        monkeypatch.setattr(fuse, "kernel_cache", cache)
        prog = _square_read_program(32, seed=3)
        execute(prog, self._memory())
        _assert_matches_serial(
            prog, {"default": self._memory(99)}, prog, {"default": self._memory(99)}
        )
        assert cache.hits == 1

    def test_counters_reach_telemetry(self, monkeypatch):
        cache = KernelCache(maxsize=8)
        monkeypatch.setattr(fuse, "kernel_cache", cache)
        prog = _square_read_program(32, seed=4)
        tel = Telemetry(label="kernel-cache")
        with session(tel):
            execute(prog, self._memory())
            execute(prog, self._memory())
        c = tel.snapshot()["metrics"]["counters"]
        assert c["program.fusion.kernel_cache.misses"] == 1
        assert c["program.fusion.kernel_cache.hits"] == 1
        assert c["program.fusion.groups"] == 2
        assert c["program.fusion.steps"] >= 1


class TestTypedProgramBlocks:
    """Per-cycle kinds travel as a block's ``families`` plus int
    ``codes``, from the op through the trace step into the kernel key."""

    R, C = PatternKind.ROW, PatternKind.COLUMN

    @staticmethod
    def _memory():
        return {"default": _memory(2, 4, Scheme.RoCo, 32, 32, "read_first", 1, 5)}

    def _program(self, kinds):
        ai = np.array([0, 8, 16, 0], dtype=np.int64)
        aj = np.array([0, 0, 8, 8], dtype=np.int64)
        return AccessProgram("kinds").read(kinds, ai, aj, tag="x")

    def test_kind_order_changes_the_key(self, monkeypatch):
        """Programs differing only in the order of their per-cycle kinds
        (family order, or which cycle gets which family) get distinct
        kernels, and each matches serial ``step()``."""
        cache = KernelCache(maxsize=8)
        monkeypatch.setattr(fuse, "kernel_cache", cache)
        R, C = self.R, self.C
        orders = [(R, C, R, C), (C, R, C, R), (R, C, C, R)]
        keys = {
            fuse.group_key(compile_program(self._program(k)).segments,
                           self._memory())
            for k in orders
        }
        assert len(keys) == len(orders)
        for kinds in orders:
            _assert_matches_serial(
                self._program(kinds), self._memory(),
                self._program(kinds), self._memory(),
            )
        assert (cache.hits, cache.misses) == (0, len(orders))

    def test_matmul_port0_step_is_one_coded_block(self):
        """Matmul's ROW (A) and COLUMN (B) reads coalesce into one port-0
        block: two families and int64 codes, not a per-access kind list."""
        prog, _ = lower_demo("matmul")
        (step,) = compile_program(prog).segments[0].steps
        (block,) = step.reads.values()
        assert list(step.reads) == [0]
        assert block.families == ((self.R, 1), (self.C, 1))
        assert block.codes.dtype == np.int64
        assert len(block.codes) == step.n
        n_rows = prog.ops[0].n
        assert not block.codes[:n_rows].any() and block.codes[n_rows:].all()
