"""Simulator detail tests: resumability, budgets, counters, ordering."""

import pytest

from repro.core.exceptions import SimulationError
from repro.maxeler import (
    DFE,
    DelayKernel,
    Manager,
    MapKernel,
    SinkKernel,
    SourceKernel,
)


def linear(values, latency=None):
    mgr = Manager("d")
    src = mgr.add_kernel(SourceKernel("src", values))
    last = src
    if latency:
        dly = mgr.add_kernel(DelayKernel("dly", latency))
        mgr.connect(src, "out", dly, "in")
        last = dly
    snk = mgr.add_kernel(SinkKernel("snk"))
    mgr.connect(last, "out", snk, "in")
    return mgr, snk


class TestResume:
    def test_run_twice_continues(self):
        """A simulator can be re-run after a predicate stop; cycles are
        cumulative and no data is lost."""
        mgr, snk = linear(range(20))
        dfe = DFE(mgr, 100)
        dfe.simulator.run(until=lambda: len(snk.collected) >= 5)
        first = dfe.simulator.cycles
        dfe.simulator.run()  # to quiescence
        assert snk.collected == list(range(20))
        assert dfe.simulator.cycles > first

    def test_quiescent_design_run_again_is_cheap(self):
        mgr, snk = linear(range(3))
        dfe = DFE(mgr, 100)
        dfe.simulator.run()
        before = dfe.simulator.cycles
        dfe.simulator.run()
        assert dfe.simulator.cycles - before <= 2


class TestBudgets:
    def test_budget_is_per_run_not_global(self):
        mgr, snk = linear(range(200))
        dfe = DFE(mgr, 100)
        dfe.simulator.run(until=lambda: len(snk.collected) >= 50, max_cycles=100)
        # second run gets its own budget
        dfe.simulator.run(until=lambda: len(snk.collected) >= 100, max_cycles=100)
        assert len(snk.collected) >= 100

    def test_default_budget_from_constructor(self):
        mgr, _ = linear(range(5))
        dfe = DFE(mgr, 100, max_cycles=3)
        with pytest.raises(SimulationError, match="exceeded"):
            dfe.simulator.run(until=lambda: False)


class TestCounters:
    def test_stream_counters(self):
        mgr, snk = linear(range(7))
        dfe = DFE(mgr, 100)
        dfe.simulator.run()
        (stream,) = [
            s for n, s in mgr.streams.items() if n.startswith("src")
        ]
        assert stream.total_pushed == 7
        assert stream.total_popped == 7
        assert stream.empty

    def test_kernel_activity_fractions(self):
        mgr, snk = linear(range(4), latency=3)
        dfe = DFE(mgr, 100)
        result = dfe.simulator.run()
        act = {n: s.utilization for n, s in result.kernel_stats.items()}
        assert set(act) == {"src", "dly", "snk"}
        assert all(0.0 <= v <= 1.0 for v in act.values())
        # the delay kernel works longer than the source
        assert act["dly"] >= act["src"]


class TestEvaluationOrder:
    def test_downstream_registration_chains_same_cycle(self):
        """Kernels registered upstream-to-downstream pass an element
        through the whole chain in one tick (combinational chaining,
        docs/simulation.md)."""
        mgr = Manager("chain")
        src = mgr.add_kernel(SourceKernel("src", [1]))
        m1 = mgr.add_kernel(MapKernel("m1", lambda x: x + 1))
        m2 = mgr.add_kernel(MapKernel("m2", lambda x: x * 2))
        snk = mgr.add_kernel(SinkKernel("snk"))
        mgr.connect(src, "out", m1, "in")
        mgr.connect(m1, "out", m2, "in")
        mgr.connect(m2, "out", snk, "in")
        result = DFE(mgr, 100).simulator.run()
        assert snk.collected == [4]
        assert result.cycles <= 3

    def test_upstream_registration_adds_cycles(self):
        """Reversed registration order inserts a register per edge."""
        mgr = Manager("rev")
        snk = mgr.add_kernel(SinkKernel("snk"))
        m2 = mgr.add_kernel(MapKernel("m2", lambda x: x * 2))
        m1 = mgr.add_kernel(MapKernel("m1", lambda x: x + 1))
        src = mgr.add_kernel(SourceKernel("src", [1]))
        mgr.connect(src, "out", m1, "in")
        mgr.connect(m1, "out", m2, "in")
        mgr.connect(m2, "out", snk, "in")
        result = DFE(mgr, 100).simulator.run()
        assert snk.collected == [4]
        assert result.cycles >= 4
