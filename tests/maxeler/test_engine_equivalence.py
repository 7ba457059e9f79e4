"""Property test: the batched engine is bit-identical to scalar ticking.

Randomized source -> (map|delay)* -> sink pipelines with random FIFO
depths, latencies and sizes run on the scalar reference path and on the
batched engine; the sink data, total cycles and per-kernel activity
counters must match exactly.  The batched engine must also actually batch
(take the fast path) on the uniform designs, or this test would pass
vacuously.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.maxeler import (
    DelayKernel,
    Manager,
    MapKernel,
    SinkKernel,
    SourceKernel,
    Simulator,
)
from repro.maxeler.simulator import scalar_reference

_STAGES = st.lists(
    st.one_of(
        st.tuples(
            st.just("map"),
            st.integers(1, 7),
            st.sampled_from([2, 4, 8, 64, None]),
        ),
        st.tuples(
            st.just("delay"),
            st.integers(1, 17),
            st.sampled_from([2, 4, 8, 64, None]),
        ),
    ),
    max_size=4,
)


def _build(n_values, stages, tail_cap):
    mgr = Manager("prop")
    src = mgr.add_kernel(SourceKernel("src", range(n_values)))
    prev = src
    for i, (kind, param, cap) in enumerate(stages):
        if kind == "map":
            k = MapKernel(f"map{i}", lambda v, m=param: v * m + 1)
        else:
            k = DelayKernel(f"delay{i}", param)
        mgr.add_kernel(k)
        mgr.connect(prev, "out", k, "in", capacity=cap)
        prev = k
    sink = mgr.add_kernel(SinkKernel("sink"))
    mgr.connect(prev, "out", sink, "in", capacity=tail_cap)
    return mgr, sink


def _run(n_values, stages, tail_cap):
    mgr, sink = _build(n_values, stages, tail_cap)
    result = Simulator(mgr).run()
    counters = {
        k.name: (k.active_cycles, k.total_cycles)
        for k in mgr.kernels.values()
    }
    batched = sum(k.batched_cycles for k in mgr.kernels.values())
    return sink.collected, result.cycles, counters, batched


@settings(max_examples=60, deadline=None)
@given(
    n_values=st.integers(0, 150),
    stages=_STAGES,
    tail_cap=st.sampled_from([2, 8, 64, None]),
)
def test_batched_engine_bit_identical(n_values, stages, tail_cap):
    with scalar_reference():
        s_data, s_cycles, s_counters, _ = _run(n_values, stages, tail_cap)
    b_data, b_cycles, b_counters, _ = _run(n_values, stages, tail_cap)
    assert b_data == s_data
    assert b_cycles == s_cycles
    assert b_counters == s_counters


def test_batched_path_actually_taken():
    """Guard against a vacuous pass: an unconstrained long pipeline must
    execute mostly through chunks, not scalar fallback."""
    _, cycles, _, batched = _run(
        500, [("delay", 9, None), ("map", 3, None)], None
    )
    assert batched > 0.8 * cycles
