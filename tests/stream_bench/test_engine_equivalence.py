"""Property test: scalar vs batched equivalence on the Fig. 9 design.

Randomized PolyMem geometries, read latencies, STREAM apps and all three
collision policies run the full Load / compute / Offload sequence on the
scalar reference path and on the batched engine; the offloaded bytes,
compute-stage cycles and every kernel's activity counters must be
identical.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PolyMemConfig
from repro.core.schemes import Scheme
from repro.maxeler.simulator import scalar_reference
from repro.stream_bench import StreamHarness, all_apps, build_stream_design
from repro.telemetry import Telemetry, session


def _design(rows, cols, latency, policy):
    cfg = PolyMemConfig(
        rows * cols * 8,
        p=2,
        q=4,
        scheme=Scheme.RoCo,
        read_ports=2,
        rows=rows,
        cols=cols,
    )
    return build_stream_design(
        cfg, read_latency=latency, collision_policy=policy
    )


def _full_pass(rows, cols, latency, policy, app, vectors):
    design = _design(rows, cols, latency, policy)
    harness = StreamHarness(design)
    vectors = max(1, min(vectors, harness.max_vectors))
    harness.load_arrays(vectors)
    cycles = harness.run_app(app, vectors, scalar=1.5)
    data = harness.offload_array(app.destination, vectors)
    counters = {
        k.name: (k.active_cycles, k.total_cycles)
        for k in design.manager.kernels.values()
    }
    return data, cycles, design.dfe.simulator.cycles, counters


@settings(max_examples=25, deadline=None)
@given(
    rows=st.sampled_from([6, 12, 24]),
    cols=st.sampled_from([8, 16, 32]),
    latency=st.integers(1, 20),
    policy=st.sampled_from(["read_first", "write_first", "forbid"]),
    app_idx=st.integers(0, 3),
    vectors=st.integers(1, 96),
)
def test_stream_engines_bit_identical(
    rows, cols, latency, policy, app_idx, vectors
):
    app = all_apps()[app_idx]
    with scalar_reference():
        s = _full_pass(rows, cols, latency, policy, app, vectors)
    b = _full_pass(rows, cols, latency, policy, app, vectors)
    assert np.array_equal(
        s[0].view(np.uint64), b[0].view(np.uint64)
    ), "offloaded bytes differ"
    assert b[1] == s[1], "compute-stage cycles differ"
    assert b[2] == s[2], "total simulated cycles differ"
    assert b[3] == s[3], "kernel activity counters differ"


@pytest.mark.parametrize("policy", ["read_first", "write_first", "forbid"])
def test_fig9_batches_under_every_policy(policy):
    """The full-size design must take the fast path (the chunk validator
    proves STREAM's read/write slots disjoint under every policy)."""
    design = _design(36, 64, 14, policy)
    harness = StreamHarness(design)
    harness.load_arrays(96)
    cycles = harness.run_app(all_apps()[0], 96)
    assert cycles == 96 + 14 + 2
    polymem = design.polymem
    assert polymem.batched_cycles > 0.5 * polymem.total_cycles


def test_full_copy_runs_in_few_chunks():
    """The Fig. 9 design's 64-deep edges are transit edges inside a chunk,
    so a 2,048-vector Load + Copy + Offload takes a handful of long chunks,
    not one chunk per FIFO depth (~63 cycles)."""
    design = build_stream_design()
    harness = StreamHarness(design)
    copy = all_apps()[0]
    with session(Telemetry()) as tel:
        harness.load_arrays(2048)
        harness.run_app(copy, 2048)
        harness.offload_array(copy.destination, 2048)
    counters = tel.metrics.to_dict()["counters"]
    assert counters["sim.cycles.batched"] > 10_000
    assert counters["sim.chunks"] <= 20


def test_scalar_reference_forces_scalar_ticks():
    """The helper every equivalence suite relies on must really tick: a
    broken one would let them compare the batched engine with itself."""
    app = all_apps()[3]

    def counted_pass():
        with session(Telemetry()) as tel:
            result = _full_pass(36, 64, 14, "read_first", app, 96)
        return result, tel.metrics.to_dict()["counters"]

    with scalar_reference():
        s, s_counters = counted_pass()
    b, b_counters = counted_pass()
    assert s_counters.get("sim.cycles.batched", 0) == 0
    assert s_counters["sim.cycles.scalar"] > 0
    assert b_counters["sim.cycles.batched"] > 0
    assert b[1:3] == s[1:3], "cycles differ"
    assert np.array_equal(s[0].view(np.uint64), b[0].view(np.uint64))
