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

A *transit edge* (a stream whose producer and consumer both run in the
chunk) carries a whole chunk whatever its depth; the end-of-chunk
occupancy check catches an op that breaks the one-in/one-out contract.
Every fallback to a scalar tick is counted with its reason.
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
from repro.maxeler.simulator import MIN_CHUNK, scalar_reference
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


def _stats(mgr, result):
    """KernelStats without the engine-specific fields (wall time, and
    which cycles ran batched)."""
    drop = ("wall_ns", "batched_cycles")
    return {
        name: {k: v for k, v in ks.to_dict().items() if k not in drop}
        for name, ks in result.kernel_stats.items()
    }


def _shallow_pipeline(map_kernel=None, cap=4, n=200):
    """Source -> Map -> Delay -> Sink over capacity-*cap* streams."""
    mgr = Manager("shallow")
    src = mgr.add_kernel(SourceKernel("src", range(n)))
    mp = mgr.add_kernel(map_kernel or MapKernel("map", lambda v: 3 * v + 1))
    dly = mgr.add_kernel(DelayKernel("dly", 5))
    snk = mgr.add_kernel(SinkKernel("snk"))
    mgr.connect(src, "out", mp, "in", capacity=cap)
    mgr.connect(mp, "out", dly, "in", capacity=cap)
    mgr.connect(dly, "out", snk, "in", capacity=cap)
    return mgr, snk


def _counted_run(mgr):
    with session(Telemetry()) as tel:
        result = Simulator(mgr).run()
    return result, tel.metrics.to_dict()


class TestTransitEdges:
    def test_chunks_outgrow_the_fifo_depth(self):
        with scalar_reference():
            s_mgr, s_snk = _shallow_pipeline()
            s_result, _ = _counted_run(s_mgr)
        b_mgr, b_snk = _shallow_pipeline()
        b_result, metrics = _counted_run(b_mgr)
        assert metrics["histograms"]["sim.chunk_cycles"]["max"] > 4
        assert b_result.cycles == s_result.cycles
        assert b_snk.collected == s_snk.collected == [3 * v + 1 for v in range(200)]
        assert _stats(b_mgr, b_result) == _stats(s_mgr, s_result)

    def test_unbalanced_transit_edge_raises(self):
        """An op that pushes n - 1 elements for n cycles leaves its transit
        edge short; the end-of-chunk occupancy check names the stream."""

        class ShortMap(MapKernel):
            def _apply(self, n):
                values = self.inputs["in"].pop_many(n)
                self.outputs["out"].push_many(values[: n - 1])

        # the sink registers before the map, so map -> sink is a backward
        # edge holding one element: the sink's n pops still succeed
        mgr = Manager("short")
        snk = mgr.add_kernel(SinkKernel("snk"))
        src = mgr.add_kernel(SourceKernel("src", range(100)))
        mp = mgr.add_kernel(ShortMap("map", lambda v: v))
        mgr.connect(src, "out", mp, "in", capacity=4)
        mgr.connect(mp, "out", snk, "in", capacity=4)
        with pytest.raises(SimulationError, match="map.out->snk.in.*transit"):
            Simulator(mgr).run()


class TestPlanRejectReasons:
    def test_every_reject_has_one_reason(self):
        mgr, _ = _shallow_pipeline()
        _, metrics = _counted_run(mgr)
        counters = metrics["counters"]
        reasons = {
            k: v for k, v in counters.items()
            if k.startswith("sim.plan_rejects.")
        }
        assert reasons
        assert "sim.plan_rejects.idle_streak" not in reasons
        assert sum(reasons.values()) == counters["sim.plan_rejects"]
        assert counters["sim.plan_rejects"] == counters["sim.cycles.scalar"]

    def test_deadlock_probe_is_not_a_plan_reject(self):
        """The tick after an idle one probes for deadlock without planning
        a chunk: it counts its own reason, outside the reject total."""
        mgr = Manager("dead")
        mux = mgr.add_kernel(MuxKernel("mux", 1))
        src = mgr.add_kernel(SourceKernel("src", [1]))
        sel = mgr.add_kernel(SourceKernel("sel", []))
        snk = mgr.add_kernel(SinkKernel("snk"))
        mgr.connect(src, "out", mux, "in0")
        mgr.connect(sel, "out", mux, "select")
        mgr.connect(mux, "out", snk, "in")
        with session(Telemetry()) as tel:
            with pytest.raises(SimulationError, match="deadlock"):
                Simulator(mgr).run(until=lambda: len(snk.collected) == 1)
        counters = tel.metrics.to_dict()["counters"]
        assert counters["sim.plan_rejects.idle_streak"] == 1
        assert counters["sim.plan_rejects"] == counters["sim.cycles.scalar"] - 1

    def test_forced_scalar_run_has_its_own_reason(self):
        with scalar_reference():
            mgr, _ = _shallow_pipeline()
            result, metrics = _counted_run(mgr)
        counters = metrics["counters"]
        assert counters["sim.plan_rejects.forced"] == result.cycles
        assert not any(
            k.startswith("sim.plan_rejects.") and k != "sim.plan_rejects.forced"
            for k in counters
        )

    def test_missing_plan_names_the_kernel(self):
        class Opaque(MapKernel):
            def batch_plan(self, ctx):
                return None

        mgr, _ = _shallow_pipeline(Opaque("opaque", abs), n=20)
        _, metrics = _counted_run(mgr)
        assert metrics["counters"]["sim.plan_rejects.no_plan.opaque"] > 0

    def test_budget_and_horizon(self):
        mgr, snk = _shallow_pipeline(n=50)
        sim = Simulator(mgr)
        with session(Telemetry()) as tel:
            sim.run(until=lambda: len(snk.collected) >= 10)
            with pytest.raises(SimulationError, match="exceeded"):
                sim.run(max_cycles=MIN_CHUNK - 1)
        counters = tel.metrics.to_dict()["counters"]
        assert counters["sim.plan_rejects.horizon"] > 0
        # each of the budget's ticks, then the exhausted check that raises
        assert counters["sim.plan_rejects.budget"] == MIN_CHUNK
