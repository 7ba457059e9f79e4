"""Pin test: a full Load / compute / Offload pass on the default Fig. 9
design reproduces fixed cycle counts, host clock, PCIe and simulator
counters and offloaded bytes.

The values are fixed numbers, not re-derived from the code under test:
a change to how stream elements travel (ring storage, bulk transfers,
host conversions) must leave every one of them bit-identical.
"""

import hashlib

import pytest

from repro.stream_bench import StreamHarness, all_apps, build_stream_design
from repro.telemetry import Telemetry, session

FULL_BAND = 10880

#: per size: what every app shares (the four apps move the same vectors
#: through the same ports, so their cycles and counters coincide)
PINS = {
    FULL_BAND: {
        "compute_cycles": 10896,
        "total_cycles": 54434,
        "clock_ns": 1850476.6666666667,
        "pcie.calls": 14,
        "pcie.ns": 1396860.0,
        "pcie.overhead_ns": 4200.0,
        "pcie.payload_bytes": 2785320,
        "sim.chunks": 57,
        "sim.cycles.batched": 54394,
        "sim.cycles.scalar": 40,
        "sim.plan_rejects": 40,
        "sim.plan_rejects.horizon": 10,
        "sim.plan_rejects.no_plan.controller": 1,
        "sim.plan_rejects.no_plan.polymem": 26,
        "sim.plan_rejects.sensitive": 3,
        "sim.stall_cycles": 0,
    },
    64: {
        "compute_cycles": 80,
        "total_cycles": 354,
        "clock_ns": 15362.0,
        "pcie.calls": 14,
        "pcie.ns": 12412.0,
        "pcie.overhead_ns": 4200.0,
        "pcie.payload_bytes": 16424,
        "sim.chunks": 7,
        "sim.cycles.batched": 314,
        "sim.cycles.scalar": 40,
        "sim.plan_rejects": 40,
        "sim.plan_rejects.horizon": 10,
        "sim.plan_rejects.no_plan.controller": 1,
        "sim.plan_rejects.no_plan.polymem": 26,
        "sim.plan_rejects.sensitive": 3,
        "sim.stall_cycles": 0,
    },
}

#: sha256 prefix of the offloaded destination array (seed 42 inputs)
DATA_SHA256 = {
    ("Copy", FULL_BAND): "b63511af07ad5d5a",
    ("Copy", 64): "ed317cae03477307",
    ("Scale", FULL_BAND): "a585a96cabdc1c01",
    ("Scale", 64): "47b15f481f6af980",
    ("Sum", FULL_BAND): "b751c3005bee5d73",
    ("Sum", 64): "eb62fa29ea778747",
    ("Triad", FULL_BAND): "f2733bc8e26e1ab0",
    ("Triad", 64): "d40404bc038a68d8",
}


@pytest.mark.parametrize("vectors", [FULL_BAND, 64])
@pytest.mark.parametrize("app", all_apps(), ids=lambda app: app.name)
def test_stream_pass_matches_pins(app, vectors):
    design = build_stream_design()
    harness = StreamHarness(design)
    with session(Telemetry()) as tel:
        harness.load_arrays(vectors)
        compute = harness.run_app(app, vectors)
        data = harness.offload_array(app.destination, vectors)
    counters = tel.metrics.to_dict()["counters"]
    got = {
        "compute_cycles": compute,
        "total_cycles": design.dfe.simulator.cycles,
        "clock_ns": harness.host.clock_ns,
    }
    got.update(
        (k, v) for k, v in counters.items() if k.startswith(("pcie.", "sim."))
    )
    assert got == PINS[vectors]
    digest = hashlib.sha256(data.tobytes()).hexdigest()[:16]
    assert digest == DATA_SHA256[app.name, vectors]
