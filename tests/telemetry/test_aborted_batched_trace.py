"""Aborted-span recovery when an exception escapes mid-chunk.

The batched engine opens a ``segment.batched`` span before running a
chunk's vectorized sub-activities.  When one of them raises, the span is
still open as the exception unwinds: the simulator's ``kernel.run``
wrapper closes it (flagged aborted) on the way out, and export closes
whatever else dangles.  The trace written after such a crash must still
be valid Perfetto JSON — the post-mortem trace is exactly the one that
matters.
"""

import json

import pytest

from repro.maxeler import Manager, Simulator, SinkKernel, SourceKernel
from repro.telemetry import deactivate, session


class ExplodingSink(SinkKernel):
    """A sink whose vectorized absorb dies partway through a chunk —
    after the producer's sub-activity has already pushed its elements."""

    def _absorb(self, n: int) -> None:
        raise RuntimeError("device fault mid-chunk")


def exploding_pipeline(n=64):
    mgr = Manager("abort")
    src = mgr.add_kernel(SourceKernel("src", range(n)))
    snk = mgr.add_kernel(ExplodingSink("snk"))
    mgr.connect(src, "out", snk, "in")
    return mgr


@pytest.fixture(autouse=True)
def clean_session():
    deactivate()
    yield
    deactivate()


class TestAbortedBatchedSpans:
    def test_exception_mid_chunk_yields_valid_perfetto_json(self, tmp_path):
        with session(tracing=True) as tel:
            sim = Simulator(exploding_pipeline())
            with pytest.raises(RuntimeError, match="device fault"):
                sim.run()
            tracer = tel.tracer
            # the batched segment was open when the op died; run() closed
            # it on the way out, leaving only kernel.run dangling
            assert tracer.open_spans == 1
            path = tmp_path / "trace.json"
            tracer.save(path)

        doc = json.loads(path.read_text())  # must parse: valid JSON
        spans = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        assert spans["segment.batched"]["args"]["aborted"] is True
        assert spans["kernel.run"]["args"]["aborted"] is True
        # export drained the stack: nothing dangles afterwards
        assert tracer.open_spans == 0
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {m["args"]["name"] for m in meta} == {"wall time", "sim time"}

    def test_aborted_spans_nest_consistently(self):
        with session(tracing=True) as tel:
            with pytest.raises(RuntimeError):
                Simulator(exploding_pipeline()).run()
            doc = tel.tracer.to_chrome_trace()
        spans = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        seg, run = spans["segment.batched"], spans["kernel.run"]
        assert seg["ts"] >= run["ts"]
        assert seg["ts"] + seg["dur"] <= run["ts"] + run["dur"]

    def test_tracer_recovers_for_subsequent_runs(self):
        with session(tracing=True) as tel:
            with pytest.raises(RuntimeError):
                Simulator(exploding_pipeline()).run()
            tel.tracer.close_open_spans()

            mgr = Manager("ok")
            src = mgr.add_kernel(SourceKernel("src", range(32)))
            snk = mgr.add_kernel(SinkKernel("snk"))
            mgr.connect(src, "out", snk, "in")
            result = Simulator(mgr).run()
            assert result.quiesced
            assert snk.collected == list(range(32))
            doc = tel.tracer.to_chrome_trace()

        runs = [
            e for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"] == "kernel.run"
        ]
        assert len(runs) == 2
        assert runs[0]["args"].get("aborted") is True
        assert "aborted" not in runs[1]["args"]
        json.dumps(doc)  # serializable end to end
