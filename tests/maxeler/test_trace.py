"""Tests for the simulation trace recorder."""

import pytest

from repro.core.exceptions import SimulationError
from repro.maxeler import (
    DelayKernel,
    Manager,
    MuxKernel,
    SinkKernel,
    SourceKernel,
    TraceRecorder,
)
from repro.maxeler.simulator import scalar_reference


def pipeline(n=6, latency=3):
    mgr = Manager("traced")
    src = mgr.add_kernel(SourceKernel("src", range(n)))
    dly = mgr.add_kernel(DelayKernel("dly", latency))
    snk = mgr.add_kernel(SinkKernel("snk"))
    mgr.connect(src, "out", dly, "in")
    mgr.connect(dly, "out", snk, "in")
    return mgr, snk


class TestTraceRecorder:
    def test_records_every_cycle(self):
        mgr, snk = pipeline()
        rec = TraceRecorder(mgr)
        result = rec.run()
        assert result.quiesced
        assert len(rec.events) == result.cycles
        assert snk.collected == list(range(6))

    def test_waveform_renders(self):
        mgr, _ = pipeline()
        rec = TraceRecorder(mgr)
        rec.run()
        wf = rec.waveform()
        assert "src" in wf and "#" in wf and "." in wf

    def test_empty_waveform(self):
        mgr, _ = pipeline()
        rec = TraceRecorder(mgr)
        assert rec.waveform() == "(no trace)"

    def test_utilization_bounds(self):
        mgr, _ = pipeline()
        rec = TraceRecorder(mgr)
        rec.run()
        util = rec.utilization()
        assert set(util) == {"src", "dly", "snk"}
        assert all(0 <= v <= 1 for v in util.values())
        # the source only works for the first 6 cycles
        assert util["src"] < 1.0

    def test_peak_depths_with_slow_consumer(self):
        mgr = Manager("bp")
        src = mgr.add_kernel(SourceKernel("src", range(20)))
        mux = mgr.add_kernel(MuxKernel("mux", 1))
        sel = mgr.add_kernel(SourceKernel("sel", [0] * 20))
        snk = mgr.add_kernel(SinkKernel("snk"))
        mgr.connect(src, "out", mux, "in0", capacity=4)
        mgr.connect(sel, "out", mux, "select", capacity=4)
        mgr.connect(mux, "out", snk, "in", capacity=4)
        rec = TraceRecorder(mgr)
        rec.run()
        peaks = rec.peak_depths()
        assert max(peaks.values()) >= 1

    def test_event_window_bounded(self):
        mgr, _ = pipeline(n=50)
        rec = TraceRecorder(mgr, max_events=10)
        rec.run()
        assert len(rec.events) == 10

    def test_deadlock_keeps_trace(self):
        mgr = Manager("dead")
        mux = mgr.add_kernel(MuxKernel("mux", 1))
        src = mgr.add_kernel(SourceKernel("src", [1]))
        sel = mgr.add_kernel(SourceKernel("sel", []))
        snk = mgr.add_kernel(SinkKernel("snk"))
        mgr.connect(src, "out", mux, "in0")
        mgr.connect(sel, "out", mux, "select")
        mgr.connect(mux, "out", snk, "in")
        rec = TraceRecorder(mgr)
        with pytest.raises(SimulationError, match="deadlock"):
            rec.run(until=lambda: len(snk.collected) == 1)
        assert rec.events  # the post-mortem evidence survives

    def test_batched_engine_traces_chunks(self):
        # large pipeline so the batched engine actually fast-forwards
        # chunks; tracing must still yield one event per simulated cycle
        mgr, snk = pipeline(n=200, latency=3)
        rec = TraceRecorder(mgr)
        result = rec.run()
        assert result.quiesced
        assert snk.collected == list(range(200))
        assert len(rec.events) == result.cycles
        assert [e.cycle for e in rec.events] == list(
            range(1, result.cycles + 1)
        )
        assert any(k.batched_cycles for k in mgr.kernels.values())
        # chunked cycles report kernel activity, same as scalar ones
        assert any("dly" in e.active_kernels for e in rec.events)

    def test_engines_agree_on_trace_shape(self):
        def shape():
            mgr, _ = pipeline(n=120, latency=4)
            rec = TraceRecorder(mgr)
            result = rec.run()
            return result.cycles, len(rec.events)

        with scalar_reference():
            scalar = shape()
        assert scalar == shape()

    def test_watch_streams_filter(self):
        mgr, _ = pipeline()
        rec = TraceRecorder(mgr, watch_streams=("src.out->dly.in",))
        rec.run()
        assert set(rec.peak_depths()) == {"src.out->dly.in"}


class TestAttachDetachIdempotency:
    def test_double_attach_does_not_double_count(self):
        # regression: attach() used to append unconditionally, so a manual
        # attach followed by run() (which attaches too) snapshotted every
        # cycle twice
        mgr, snk = pipeline()
        rec = TraceRecorder(mgr)
        rec.attach()
        rec.attach()
        assert rec.simulator.observers.count(rec) == 1
        result = rec.run()
        assert len(rec.events) == result.cycles
        assert snk.collected == list(range(6))

    def test_detach_is_idempotent(self):
        mgr, _ = pipeline()
        rec = TraceRecorder(mgr)
        rec.detach()  # never attached: no-op
        rec.attach()
        rec.detach()
        rec.detach()
        assert rec not in rec.simulator.observers

    def test_run_detaches_afterwards(self):
        mgr, _ = pipeline()
        rec = TraceRecorder(mgr)
        rec.run()
        assert rec not in rec.simulator.observers

    def test_manual_attach_run_counts_once_per_cycle(self):
        mgr, _ = pipeline(n=40, latency=2)
        rec = TraceRecorder(mgr)
        result = rec.attach().simulator.run()
        assert len(rec.events) == result.cycles
        assert [e.cycle for e in rec.events] == list(
            range(1, result.cycles + 1)
        )
