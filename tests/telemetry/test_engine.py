"""Program-engine telemetry on the success and error paths.

A replay error aborts the program with its program and segment spans
still open; export closes them, flagged ``"aborted": true``.
"""

import numpy as np
import pytest

from repro.core.config import PolyMemConfig
from repro.core.exceptions import PolyMemError
from repro.core.polymem import PolyMem
from repro.program import AccessProgram, execute
from repro.telemetry import Telemetry, deactivate, session


@pytest.fixture(autouse=True)
def no_leaked_session():
    deactivate()
    yield
    deactivate()


def _memory():
    cfg = PolyMemConfig(4096, p=2, q=4, scheme="ReRo", rows=16, cols=32)
    pm = PolyMem(cfg)
    rng = np.random.default_rng(11)
    pm.load(rng.integers(0, 2**63, size=(16, 32), dtype=np.uint64))
    return pm


def _good_program():
    prog = AccessProgram("good")
    prog.read("row", [0], [0], tag="a")
    prog.compute(lambda env: {"done": 1}, label="finish")
    return prog


def _failing_program():
    prog = AccessProgram("bad")
    prog.read("row", [0], [0], tag="a")
    prog.barrier()
    # second segment: anchor far outside the 16x32 space -> replay error
    prog.read("row", [40], [0], tag="b")
    return prog


class TestTelemetryOnErrorPaths:
    def test_aborted_program_leaves_spans_recoverable(self):
        with session(Telemetry(tracing=True)) as tel:
            with pytest.raises(PolyMemError):
                execute(_failing_program(), _memory())
        # program + segment spans were left open by the abort ...
        assert tel.tracer.open_spans == 2
        # ... and export closes them, flagged aborted
        doc = tel.tracer.to_chrome_trace()
        aborted = [
            e["name"]
            for e in doc["traceEvents"]
            if e.get("args", {}).get("aborted")
        ]
        assert "program:bad" in aborted
        assert "segment:1" in aborted

    def test_telemetry_observer_rides_active_session(self):
        with session(Telemetry()) as tel:
            execute(_good_program(), _memory())
        counters = tel.metrics.to_dict()["counters"]
        assert counters["program.executions"] == 1
        assert counters["program.traces"] == 1
        assert counters["program.compute_boundaries"] == 1
        assert counters["program.cycles"] > 0


class TestProgramSpans:
    def test_program_span_encloses_segment_and_compute(self):
        with session(Telemetry(tracing=True)) as tel:
            execute(_good_program(), _memory())
        events = [
            e
            for e in tel.tracer.to_chrome_trace()["traceEvents"]
            if e.get("cat") == "program"
        ]
        # complete events are emitted when their span ends
        assert [e["name"] for e in events] == [
            "compute:finish", "segment:0", "program:good",
        ]
        compute, segment, program = events
        assert program["ts"] <= segment["ts"] <= compute["ts"]
        assert compute["ts"] <= segment["ts"] + segment["dur"]
        assert segment["ts"] + segment["dur"] <= program["ts"] + program["dur"]
        assert program["args"]["cycles"] == 1
        assert tel.tracer.open_spans == 0
