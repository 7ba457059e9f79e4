"""Property test: the batched engine is bit-identical to scalar ticking.

Randomized source -> (map|delay)* -> sink pipelines with random FIFO
depths, latencies and sizes run on the scalar reference path and on the
batched engine; the sink data, total cycles and per-kernel activity
counters must match exactly.  The batched engine must also actually batch
(take the fast path) on the uniform designs, or this test would pass
vacuously.

The span trace (``--trace-out``) is the simulator's cycle trace: on both
engines the ``segment.scalar`` / ``segment.batched`` spans account for
every cycle of the enclosing ``kernel.run`` span exactly once.
"""

from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import SimulationError
from repro.maxeler import (
    DelayKernel,
    Manager,
    MapKernel,
    MuxKernel,
    SinkKernel,
    SourceKernel,
    Simulator,
)
from repro.maxeler.simulator import scalar_reference
from repro.telemetry import Telemetry, session

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


def _spans(tel, name):
    """The args of every closed span called *name*, in close order."""
    return [
        e["args"] for e in tel.tracer.events
        if e["ph"] == "X" and e["name"] == name
    ]


def _segment_cycles(tel):
    segments = _spans(tel, "segment.scalar") + _spans(tel, "segment.batched")
    return [seg["cycles"] for seg in segments]


def _traced_pipeline():
    mgr = Manager("traced")
    src = mgr.add_kernel(SourceKernel("src", range(120)))
    dly = mgr.add_kernel(DelayKernel("dly", 4))
    snk = mgr.add_kernel(SinkKernel("snk"))
    mgr.connect(src, "out", dly, "in")
    mgr.connect(dly, "out", snk, "in")
    with session(Telemetry(tracing=True)) as tel:
        result = Simulator(mgr).run()
    return result, snk.collected, tel


class TestSpanTrace:
    @pytest.fixture(scope="class")
    def sides(self):
        with scalar_reference():
            scalar = _traced_pipeline()
        return scalar, _traced_pipeline()

    def test_engines_agree_on_run_span(self, sides):
        (s_result, s_out, s_tel), (b_result, b_out, b_tel) = sides
        assert b_result.cycles == s_result.cycles
        assert _spans(b_tel, "kernel.run") == _spans(s_tel, "kernel.run")
        assert _spans(s_tel, "kernel.run") == [{"cycles": s_result.cycles}]
        assert b_out == s_out == list(range(120))

    def test_segments_partition_the_run(self, sides):
        for result, _, tel in sides:
            segments = _segment_cycles(tel)
            assert all(n > 0 for n in segments)
            assert sum(segments) == result.cycles

    def test_only_the_batched_engine_emits_batched_segments(self, sides):
        (_, _, s_tel), (_, _, b_tel) = sides
        assert _spans(b_tel, "segment.batched")
        assert not _spans(s_tel, "segment.batched")

    @pytest.mark.parametrize("reference", [True, False], ids=["scalar", "batched"])
    def test_deadlock_leaves_aborted_run_span(self, reference):
        mgr = Manager("dead")
        mux = mgr.add_kernel(MuxKernel("mux", 1))
        src = mgr.add_kernel(SourceKernel("src", [1]))
        sel = mgr.add_kernel(SourceKernel("sel", []))
        snk = mgr.add_kernel(SinkKernel("snk"))
        mgr.connect(src, "out", mux, "in0")
        mgr.connect(sel, "out", mux, "select")
        mgr.connect(mux, "out", snk, "in")
        sim = Simulator(mgr)
        engine = scalar_reference() if reference else nullcontext()
        with engine, session(Telemetry(tracing=True)) as tel:
            with pytest.raises(SimulationError, match="deadlock"):
                sim.run(until=lambda: len(snk.collected) == 1)
        assert sim.cycles > 0
        assert _spans(tel, "kernel.run") == [
            {"cycles": sim.cycles, "aborted": True}
        ]
        assert sum(_segment_cycles(tel)) == sim.cycles
