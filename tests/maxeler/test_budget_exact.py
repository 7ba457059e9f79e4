"""Regression tests pinning the exact-inclusive ``max_cycles`` semantics.

The budget is a hard inclusive bound: a run needing exactly ``max_cycles``
cycles completes, one needing more raises with *exactly* ``max_cycles``
consumed — every tick, including the idle quiescence-probe tick, is
charged against it.  The scalar reference and the batched engine must
agree.
"""

import pytest

from repro.core.exceptions import SimulationError
from repro.maxeler import (
    Manager,
    Predicate,
    SinkKernel,
    SourceKernel,
    Simulator,
)


def _linear(n):
    mgr = Manager("budget")
    src = mgr.add_kernel(SourceKernel("src", range(n)))
    snk = mgr.add_kernel(SinkKernel("snk"))
    mgr.connect(src, "out", snk, "in")
    return mgr, snk


def _collected(snk, target):
    """Stop once *target* elements arrived; the horizon is exact (the sink
    collects at most one element per cycle), so chunking stays enabled."""
    return Predicate(
        lambda: len(snk.collected) >= target,
        horizon=lambda: max(0, target - len(snk.collected)),
    )


@pytest.mark.usefixtures("tick_path")
class TestExactBudget:
    def test_exact_budget_completes(self):
        """Draining 20 elements takes exactly 20 cycles (the sink pops in
        the same cycle the source pushes) — a budget of 20 must succeed."""
        mgr, snk = _linear(20)
        sim = Simulator(mgr)
        sim.run(until=_collected(snk, 20), max_cycles=20)
        assert sim.cycles == 20
        assert snk.collected == list(range(20))

    def test_one_short_raises_with_budget_consumed(self):
        """One cycle less raises, having consumed exactly the budget —
        the over-budget tick is never executed."""
        mgr, snk = _linear(20)
        sim = Simulator(mgr)
        with pytest.raises(SimulationError, match="exceeded 19 cycles"):
            sim.run(until=_collected(snk, 20), max_cycles=19)
        assert sim.cycles == 19
        assert snk.collected == list(range(19))

    def test_probe_tick_charged(self):
        """An unsatisfiable predicate on an idle design: the quiescence
        probe ticks count against the budget, so the run raises at
        exactly ``max_cycles``, never at ``max_cycles + 1``."""
        mgr, _ = _linear(0)  # nothing to do: every tick is idle
        sim = Simulator(mgr)
        never = Predicate(lambda: False, horizon=lambda: 1)
        with pytest.raises(SimulationError, match="exceeded 1 cycles"):
            sim.run(until=never, max_cycles=1)
        assert sim.cycles == 1

    def test_zero_budget(self):
        mgr, _ = _linear(5)
        sim = Simulator(mgr)
        never = Predicate(lambda: False, horizon=lambda: 1)
        with pytest.raises(SimulationError, match="exceeded 0 cycles"):
            sim.run(until=never, max_cycles=0)
        assert sim.cycles == 0
