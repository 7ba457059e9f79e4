"""The STREAM controller hands PolyMem command blocks, not command objects.

A batched chunk claims and pushes whole :class:`AccessBlock` slices, so
the only per-command :class:`AccessRequest` objects left are the scalar
ticks' (the reference path reads one command at a time from a block).
"""

from repro.core.agu import AccessRequest
from repro.stream_bench import COPY, StreamHarness
from repro.telemetry import Telemetry, session


def test_batched_copy_builds_requests_only_on_scalar_ticks(monkeypatch):
    harness = StreamHarness()
    harness.load_arrays(2048)
    built = []
    init = AccessRequest.__init__

    def counting(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(AccessRequest, "__init__", counting)
    with session(Telemetry()) as tel:
        harness.run_app(COPY, 2048)
    counters = tel.metrics.to_dict()["counters"]
    assert counters["sim.cycles.batched"] > 2000
    assert len(built) <= 3 * counters["sim.cycles.scalar"]
