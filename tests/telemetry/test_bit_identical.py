"""Enabling telemetry must not change simulation results.

Every instrumentation site is observational — the same workload run with
metrics + tracing enabled must produce bit-identical data and identical
cycle accounting to a run with telemetry off.
"""

import numpy as np
import pytest

from repro.core.config import PolyMemConfig
from repro.core.polymem import PolyMem
from repro.program import execute
from repro.program.lower import lower_demo
from repro.stream_bench import StreamHarness, all_apps
from repro.stream_bench.apps import DEFAULT_SCALAR
from repro.stream_bench.controller import build_stream_design
from repro.telemetry import Telemetry, deactivate, session


@pytest.fixture(autouse=True)
def no_leaked_session():
    deactivate()
    yield
    deactivate()


def _run_stream(vectors=96):
    design = build_stream_design()
    harness = StreamHarness(design)
    app = next(a for a in all_apps() if a.name.lower() == "triad")
    arrays = harness.load_arrays(vectors)
    cycles = harness.run_app(app, vectors)
    got = harness.offload_array(app.destination, vectors)
    want = app.expected(arrays["a"], arrays["b"], arrays["c"], DEFAULT_SCALAR)
    return cycles, design.dfe.simulator.cycles, harness.host.clock_ns, got, want


def _run_program(name):
    program, mems = lower_demo(name)
    result = execute(program, mems)
    dumps = {k: pm.dump().copy() for k, pm in mems.items()}
    return result, dumps


class TestStreamBitIdentical:
    def test_telemetry_does_not_perturb_simulation(self, tick_path):
        base = _run_stream()
        with session(Telemetry(tracing=True)) as tel:
            instrumented = _run_stream()
        # telemetry actually observed the run ...
        counters = tel.metrics.to_dict()["counters"]
        assert counters["sim.cycles.scalar"] + counters.get(
            "sim.cycles.batched", 0
        ) == instrumented[1]
        assert tel.tracer.events
        # ... without changing a single number
        assert base[0] == instrumented[0]  # compute cycles
        assert base[1] == instrumented[1]  # total simulated cycles
        assert base[2] == instrumented[2]  # host time ledger
        assert np.array_equal(base[3], instrumented[3])  # offloaded data
        assert np.allclose(instrumented[3], instrumented[4], rtol=1e-12)


class TestProgramBitIdentical:
    @pytest.mark.parametrize("name", ["matmul", "stencil", "reduce_rows"])
    def test_program_results_identical(self, name):
        base, base_dumps = _run_program(name)
        with session(Telemetry(tracing=True)) as tel:
            instrumented, tel_dumps = _run_program(name)
        counters = tel.metrics.to_dict()["counters"]
        assert counters["program.executions"] == 1
        assert counters["program.cycles"] == base.report.cycles
        assert base.report.cycles == instrumented.report.cycles
        assert set(base.env) == set(instrumented.env)
        for tag, val in base.env.items():
            assert np.array_equal(
                np.asarray(val), np.asarray(instrumented.env[tag])
            ), tag
        for mem_name, dump in base_dumps.items():
            assert np.array_equal(dump, tel_dumps[mem_name])


class TestReplayBitIdentical:
    def test_replay_counters_match_cycles(self):
        cfg = PolyMemConfig(4096, p=2, q=4, scheme="ReRo", rows=16, cols=32)

        def run():
            pm = PolyMem(cfg)
            rng = np.random.default_rng(7)
            data = rng.integers(0, 2**63, size=(16, 32), dtype=np.uint64)
            pm.load(data)
            out = pm.read_batch("row", np.zeros(4, np.int64),
                                np.arange(4, dtype=np.int64) * 8)
            return pm.cycles, out

        base_cycles, base_out = run()
        with session(Telemetry()) as tel:
            cycles, out = run()
        assert cycles == base_cycles
        assert np.array_equal(out, base_out)
        counters = tel.metrics.to_dict()["counters"]
        assert counters["polymem.cycles.batch"] == 4
        assert counters["polymem.parallel_accesses"] == 4
