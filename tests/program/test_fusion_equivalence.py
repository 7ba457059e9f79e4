"""Property suite: fused kernel units vs the engine's per-step replay.

:meth:`FusionPlan.run_segment` claims each fused unit is bit-identical
to replaying its step through ``PolyMem.replay`` — results, memory state,
cycle/port statistics, error behaviour (type and message) and the
telemetry counters both paths emit.  The reference here is the engine
itself with every step forced onto its replay fallback (the interpreting
path), so the two runs differ only in the units under test.

Complements ``test_engine_equivalence.py``, whose oracle is serial
``PolyMem.step()``: that pins the engine to the Fig. 3 datapath, this
pins the fast path to the fallback it shares a run loop with, including
the ``program.*`` counters serial stepping does not emit.
"""

import pytest
from hypothesis import given, settings

import repro.program.fuse as fuse
from repro.core.exceptions import PolyMemError
from repro.program import KernelCache, execute
from repro.program.lower import DEMO_NAMES, lower_demo
from repro.telemetry import Telemetry, session

from .test_engine_equivalence import (
    _assert_same_env,
    _assert_same_state,
    _build_program,
    _memory,
    program_cases,
)

#: counters whose values are path-independent by contract; the
#: path-specific ones (polymem.cycles.replay vs .fused, replay.calls,
#: plan-cache traffic, program.fusion.*) are excluded by construction
SHARED_COUNTERS = (
    "polymem.parallel_accesses",
    "polymem.collision.forwarded",
    "program.executions",
    "program.segments",
    "program.traces",
    "program.trace_cycles",
    "program.compute_boundaries",
    "program.cycles",
)


def _run(program, mems, *, replay_only):
    """Execute under a private telemetry session; returns
    ``(result, err, shared_counter_values)``.

    With *replay_only*, every step is classified onto the replay path
    and kernels go to a private cache, so the process-wide one never
    holds an all-replay kernel."""
    tel = Telemetry(label=f"fusion-eq-{'replay' if replay_only else 'fused'}")
    err = None
    res = None
    with pytest.MonkeyPatch.context() as mp:
        if replay_only:
            mp.setattr(fuse, "_classify_step",
                       lambda step, pm: ("replay", "forced"))
            mp.setattr(fuse, "kernel_cache", KernelCache())
        try:
            with session(tel):
                res = execute(program, mems)
        except PolyMemError as e:
            err = (type(e), str(e))
    counters = tel.snapshot()["metrics"]["counters"]
    shared = {name: counters.get(name, 0) for name in SHARED_COUNTERS}
    return res, err, shared


def _assert_fused_matches_replay(prog_f, mems_f, prog_i, mems_i):
    res_f, err_f, tel_f = _run(prog_f, mems_f, replay_only=False)
    res_i, err_i, tel_i = _run(prog_i, mems_i, replay_only=True)
    assert err_f == err_i
    _assert_same_state(mems_f, mems_i)
    assert tel_f == tel_i
    if err_f is None:
        _assert_same_env(res_f.env, res_i.env)
        assert res_f.report == res_i.report
    return err_f


class TestFusedMatchesInterp:
    @given(program_cases())
    @settings(max_examples=80, deadline=None)
    def test_randomized_programs(self, case):
        p, q, scheme, rows, cols, policy, read_ports, seed, ops = case
        args = (p, q, scheme, rows, cols, policy, read_ports, seed)
        prog = _build_program(ops)
        _assert_fused_matches_replay(
            prog, {"default": _memory(*args)}, prog, {"default": _memory(*args)}
        )


class TestProductionLowerings:
    """Every production demo runs bit-identically on both paths."""

    DEMOS = [n for n in DEMO_NAMES if n != "stream_copy"]  # describe-only

    @pytest.mark.parametrize("name", DEMOS)
    def test_demo_fused_matches_interp(self, name):
        prog_f, mems_f = lower_demo(name)
        prog_i, mems_i = lower_demo(name)
        assert _assert_fused_matches_replay(prog_f, mems_f, prog_i, mems_i) is None
