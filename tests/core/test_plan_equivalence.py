"""Property suite: compiled plans and batched replay vs serial ``step()``.

The access-plan compiler (``repro.core.plan``) and the replay engine
(``PolyMem.replay``) both claim *bit-identical* behaviour to the
architectural per-access path — results, memory state, cycle/port
statistics, and error behaviour (type and message) included.  This suite
drives randomized traces through both paths across all five schemes, all
pattern kinds, strides, read-port counts and collision policies, with
deliberately invalid anchors and same-cycle collisions mixed in.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.addressing import AddressingFunction
from repro.core.config import PolyMemConfig
from repro.core.exceptions import PolyMemError
from repro.core.patterns import PatternKind, pattern_offsets
from repro.core.plan import AccessTrace, compile_plan
from repro.core.polymem import PolyMem
from repro.core.schemes import Scheme, flat_module_assignment

LANE_GRIDS = [(2, 2), (2, 4), (4, 2), (4, 4)]


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


def _run_serial(pm, trace):
    """Issue the trace one ``step()`` per cycle; collect results or error."""
    outs = {port: [] for port in trace.read_ports}
    err = None
    try:
        for t in range(trace.n):
            reads, write = trace.cycle_args(t)
            res = pm.step(reads=reads, write=write)
            for port in outs:
                outs[port].append(res[port])
    except PolyMemError as e:
        err = (type(e), str(e))
    return outs, err


def _run_replay(pm, trace):
    err = None
    outs = None
    try:
        outs = pm.replay(trace)
    except PolyMemError as e:
        err = (type(e), str(e))
    return outs, err


def _assert_same_state(pm_a, pm_b):
    assert pm_a.cycles == pm_b.cycles
    assert pm_a.write_stats == pm_b.write_stats
    assert pm_a.read_stats == pm_b.read_stats
    assert np.array_equal(pm_a.dump(), pm_b.dump())


@st.composite
def trace_cases(draw):
    p, q = draw(st.sampled_from(LANE_GRIDS))
    scheme = draw(st.sampled_from(list(Scheme)))
    lanes = p * q
    rows = cols = lanes * 4
    stride = draw(st.sampled_from([1, 1, 1, 2, 3]))
    policy = draw(st.sampled_from(PolyMem.COLLISION_POLICIES))
    read_ports = draw(st.integers(1, 2))
    n = draw(st.integers(1, 10))
    anchors = st.lists(
        st.integers(-2, rows + 1), min_size=n, max_size=n
    )
    trace = AccessTrace()
    used_kinds = []
    for port in range(draw(st.integers(0, read_ports))):
        kind = draw(st.sampled_from(list(PatternKind)))
        used_kinds.append(kind)
        trace.read(kind, draw(anchors), draw(anchors), port=port, stride=stride)
    has_write = draw(st.booleans()) or not used_kinds
    if has_write:
        kind = draw(st.sampled_from(list(PatternKind)))
        used_kinds.append(kind)
        wi, wj = draw(anchors), draw(anchors)
        values = np.random.default_rng(draw(st.integers(0, 2**32))).integers(
            0, 2**63, size=(n, lanes), dtype=np.uint64
        )
        trace.write(kind, wi, wj, values, stride=stride)
        if trace.read_ports and draw(st.booleans()):
            # force same-cycle read/write collisions: mirror the write
            # anchors (and kind) into a fresh port-0 read stream
            forced = AccessTrace().read(kind, wi, wj, port=0, stride=stride)
            for port in trace.read_ports:
                if port != 0:
                    s = trace._reads[port]
                    first = s.request(0)
                    forced.read(
                        first.kind, s.anchors_i, s.anchors_j,
                        port=port, stride=first.stride,
                    )
            forced.write(kind, wi, wj, values, stride=stride)
            trace = forced
    seed = draw(st.integers(0, 2**32))
    return (p, q, scheme, rows, cols, policy, read_ports, seed, trace)


@settings(max_examples=120, deadline=None)
@given(trace_cases())
def test_replay_bit_identical_to_serial_step(case):
    """Replay == N serial steps: results, errors, state and statistics."""
    p, q, scheme, rows, cols, policy, read_ports, seed, trace = case
    pm_serial = _memory(p, q, scheme, rows, cols, policy, read_ports, seed)
    pm_replay = _memory(p, q, scheme, rows, cols, policy, read_ports, seed)
    serial_outs, serial_err = _run_serial(pm_serial, trace)
    replay_outs, replay_err = _run_replay(pm_replay, trace)
    assert serial_err == replay_err
    if serial_err is None:
        for port in trace.read_ports:
            assert np.array_equal(
                np.asarray(serial_outs[port]), replay_outs[port]
            )
    _assert_same_state(pm_serial, pm_replay)


@settings(max_examples=120, deadline=None)
@given(trace_cases())
def test_planned_step_bit_identical_to_unplanned(case):
    """The planned single-access path == the AGU/shuffle reference path."""
    p, q, scheme, rows, cols, policy, read_ports, seed, trace = case
    pm_plan = _memory(p, q, scheme, rows, cols, policy, read_ports, seed)
    pm_ref = _memory(p, q, scheme, rows, cols, policy, read_ports, seed)
    pm_ref.use_plans = False
    plan_outs, plan_err = _run_serial(pm_plan, trace)
    ref_outs, ref_err = _run_serial(pm_ref, trace)
    assert plan_err == ref_err
    for port in trace.read_ports:
        assert len(plan_outs[port]) == len(ref_outs[port])
        for a, b in zip(plan_outs[port], ref_outs[port]):
            assert np.array_equal(a, b)
    _assert_same_state(pm_plan, pm_ref)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(LANE_GRIDS),
    st.sampled_from(list(Scheme)),
    st.integers(0, 2**32),
    st.integers(2, 12),
)
def test_heterogeneous_kind_trace_matches_serial(grid, scheme, seed, n):
    """A per-cycle kind sequence replays like the equivalent step loop."""
    p, q = grid
    rows = cols = p * q * 4
    rng = np.random.default_rng(seed)
    kinds = [
        PatternKind(k)
        for k in rng.choice([k.value for k in PatternKind], size=n)
    ]
    ai = rng.integers(0, rows, size=n)
    aj = rng.integers(0, cols, size=n)
    trace = AccessTrace().read(kinds, ai, aj)
    pm_serial = _memory(p, q, scheme, rows, cols, "read_first", 1, seed)
    pm_replay = _memory(p, q, scheme, rows, cols, "read_first", 1, seed)
    serial_outs, serial_err = _run_serial(pm_serial, trace)
    replay_outs, replay_err = _run_replay(pm_replay, trace)
    assert serial_err == replay_err
    if serial_err is None:
        assert np.array_equal(np.asarray(serial_outs[0]), replay_outs[0])
    _assert_same_state(pm_serial, pm_replay)


# -- plan table correctness ----------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(LANE_GRIDS),
    st.sampled_from(list(Scheme)),
    st.sampled_from(list(PatternKind)),
    st.sampled_from([1, 2, 3]),
    st.integers(0, 400),
    st.integers(0, 400),
)
def test_plan_tables_match_direct_derivation(grid, scheme, kind, stride, i, j):
    """Residue tables reproduce the MAF / addressing function exactly."""
    p, q = grid
    rows = cols = p * q * 8
    plan = compile_plan(rows, cols, p, q, scheme, kind, stride)
    di, dj = pattern_offsets(kind, p, q, stride)
    ii, jj = i + di, j + dj
    banks = flat_module_assignment(scheme, ii, jj, p, q)
    assert np.array_equal(plan.banks(i, j), banks)
    assert plan.conflict_free(i, j) == (np.unique(banks).size == banks.size)
    if plan.fits(i, j):
        assert (
            (ii >= 0).all() and (jj >= 0).all()
            and (ii < rows).all() and (jj < cols).all()
        )
        addressing = AddressingFunction(rows, cols, p, q)
        assert np.array_equal(plan.addrs(i, j), addressing(ii, jj))
    if plan.conflict_free(i, j):
        lob = plan.inverse_permutation(i, j)
        assert np.array_equal(np.asarray(banks)[lob], np.arange(p * q))


def test_compile_plan_is_cached_and_shared():
    a = compile_plan(16, 16, 2, 4, Scheme.ReRo, PatternKind.ROW, 1)
    b = compile_plan(16, 16, 2, 4, Scheme.ReRo, PatternKind.ROW, 1)
    assert a is b
    pm1 = PolyMem(PolyMemConfig(16 * 16 * 8, p=2, q=4, scheme=Scheme.ReRo,
                                rows=16, cols=16))
    pm2 = PolyMem(PolyMemConfig(16 * 16 * 8, p=2, q=4, scheme=Scheme.ReRo,
                                rows=16, cols=16))
    assert pm1.plan(PatternKind.ROW) is pm2.plan(PatternKind.ROW)
    # instance cache: second fetch is the same object
    assert pm1.plan(PatternKind.ROW) is pm1.plan(PatternKind.ROW)


def test_replay_rejects_bad_port_and_empty_trace_is_free():
    pm = PolyMem(PolyMemConfig(16 * 16 * 8, p=2, q=4, scheme=Scheme.ReRo,
                               rows=16, cols=16))
    import pytest

    from repro.core.exceptions import PortError

    with pytest.raises(PortError):
        pm.replay(AccessTrace().read(PatternKind.ROW, [0], [0], port=3))
    out = pm.replay(AccessTrace())
    assert out == {}
    assert pm.cycles == 0
