"""Property test: host-pushed command blocks run identically on both engines.

The host queues random read and write :class:`AccessBlock` s on a fused
MAX-PolyMem design: mixed pattern kinds, strides 1-3, random lengths, and
sometimes an out-of-bounds or bank-conflicting anchor in the middle of a
block.  The batched engine claims such a queued backlog as its chunk, so
it must agree with the scalar reference on the simulated cycles, every
``rd_out`` result, the per-kernel counters and the summed
``polymem.cycles.*``, and on a bad anchor raise the same error at the
same cycle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import KB, PolyMemConfig
from repro.core.exceptions import PolyMemError
from repro.core.patterns import PatternKind
from repro.core.plan import AccessBlock, compile_plan
from repro.core.schemes import Scheme
from repro.maxeler.simulator import scalar_reference
from repro.maxpolymem import build_design
from repro.telemetry import Telemetry, session

CFG = PolyMemConfig(4 * KB, p=2, q=4, scheme=Scheme.RoCo, read_ports=2)
STRIDES = (1, 2, 3)


def _anchor_sets():
    """Per ``(kind, stride)`` family: its valid anchors and its in-bounds
    but bank-conflicting ones, on the ``CFG`` space."""
    ii, jj = np.divmod(np.arange(CFG.rows * CFG.cols), CFG.cols)
    valid, conflicting = {}, {}
    for kind in PatternKind:
        for stride in STRIDES:
            plan = compile_plan(
                CFG.rows, CFG.cols, CFG.p, CFG.q, CFG.scheme, kind, stride
            )
            fits = plan.fits_mask(ii, jj)
            ok = plan.ok_mask(ii, jj)
            if (fits & ok).any():
                valid[kind, stride] = np.flatnonzero(fits & ok)
            if (fits & ~ok).any():
                conflicting[kind, stride] = np.flatnonzero(fits & ~ok)
    return valid, conflicting


VALID, CONFLICTING = _anchor_sets()
FAMILIES = sorted(VALID, key=lambda f: (f[0].value, f[1]))


@st.composite
def blocks(draw, write: bool):
    """One block: a stride, one kind or per-access kinds valid at that
    stride, an anchor per access and, rarely, one bad access in the
    middle."""
    stride = draw(st.sampled_from(STRIDES))
    kinds = st.sampled_from([k for k, s in FAMILIES if s == stride])
    n = draw(st.integers(1, 24))
    if draw(st.booleans()):
        seq = [draw(kinds)] * n
    else:
        seq = draw(st.lists(kinds, min_size=n, max_size=n))
    picks = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n))
    flat = [VALID[k, stride][x % VALID[k, stride].size] for k, x in zip(seq, picks)]
    ai, aj = np.divmod(np.array(flat, dtype=np.int64), CFG.cols)
    bad = draw(st.sampled_from([None] * 6 + ["bounds", "conflict"]))
    if bad is not None and n > 2:
        t = n // 2
        if bad == "bounds":
            ai[t] = CFG.rows
        elif (seq[t], stride) in CONFLICTING:
            cell = CONFLICTING[seq[t], stride][0]
            ai[t], aj[t] = divmod(int(cell), CFG.cols)
    kind = seq[0] if len(set(seq)) == 1 else seq
    values = None
    if write:
        seed = draw(st.integers(0, 2**32 - 1))
        values = np.random.default_rng(seed).integers(
            0, 2**63, size=(n, CFG.lanes), dtype=np.uint64
        )
    return AccessBlock(kind, ai, aj, stride=stride, values=values)


# one round: blocks queued per command port, then one run to quiescence
ROUNDS = st.lists(
    st.fixed_dictionaries(
        {
            "wr_cmd": st.lists(blocks(write=True), max_size=2),
            "rd_cmd0": st.lists(blocks(write=False), max_size=2),
            "rd_cmd1": st.lists(blocks(write=False), max_size=2),
        }
    ),
    min_size=1,
    max_size=3,
)


def _stats(result):
    drop = ("wall_ns", "batched_cycles")
    return {
        name: {k: v for k, v in ks.to_dict().items() if k not in drop}
        for name, ks in result.kernel_stats.items()
    }


def _run(rounds):
    """Every round on a fresh design; returns what both engines must
    agree on, with the error (type, message, cycle) if one is raised."""
    design = build_design(CFG, clock_source="model")
    # unique contents, so every read tells which slots it gathered
    cells = CFG.rows * CFG.cols
    design.kernel.memory.load(
        np.arange(1, cells + 1, dtype=np.uint64).reshape(CFG.rows, CFG.cols)
    )
    host = design.host()
    sim = design.dfe.simulator
    outputs, stats, error = [], None, None
    with session(Telemetry()) as tel:
        try:
            for pushes in rounds:
                for port, queued in pushes.items():
                    for block in queued:
                        host.write_stream(port, block)
                stats = _stats(host.run_kernel())
                outputs.append(
                    [host.read_stream(f"rd_out{r}") for r in range(CFG.read_ports)]
                )
        except PolyMemError as err:
            error = (type(err), str(err), sim.cycles)
    counters = tel.metrics.to_dict()["counters"]
    polymem_cycles = sum(
        v for k, v in counters.items() if k.startswith("polymem.cycles.")
    )
    memory = design.kernel.memory
    return {
        "cycles": sim.cycles,
        "outputs": [[[v.tolist() for v in out] for out in rnd] for rnd in outputs],
        "stats": stats,
        "error": error,
        "memory": (memory.cycles, polymem_cycles, memory.dump().tolist()),
        "batched": counters.get("sim.cycles.batched", 0),
        "fused": counters.get("polymem.cycles.fused", 0),
    }


@settings(max_examples=60, deadline=None)
@given(rounds=ROUNDS)
def test_host_blocks_bit_identical(rounds):
    with scalar_reference():
        scalar = _run(rounds)
    batched = _run(rounds)
    assert scalar["batched"] == 0
    for key in ("error", "cycles", "outputs", "stats", "memory"):
        assert batched[key] == scalar[key], key
    assert scalar["memory"][0] == scalar["memory"][1]


def test_backlog_runs_batched():
    """A long queued write backlog and a read backlog run as chunks (the
    equivalence above would pass vacuously if they never did)."""
    ai, aj = np.divmod(np.arange(16), 8)
    writes = AccessBlock(
        PatternKind.RECTANGLE, 2 * ai, 4 * aj,
        values=np.arange(16 * 8, dtype=np.uint64).reshape(16, 8),
    )
    reads = AccessBlock(PatternKind.ROW, np.arange(12), np.zeros(12, int))
    rounds = [{"wr_cmd": [writes], "rd_cmd0": [], "rd_cmd1": []},
              {"wr_cmd": [], "rd_cmd0": [reads], "rd_cmd1": [reads]}]
    with scalar_reference():
        scalar = _run(rounds)
    batched = _run(rounds)
    for key in ("error", "cycles", "outputs", "stats", "memory"):
        assert batched[key] == scalar[key], key
    assert len(batched["outputs"][1][0]) == 12
    assert batched["fused"] >= 16 + 12


@pytest.mark.parametrize("port", ["wr_cmd", "rd_cmd0"])
@pytest.mark.parametrize(
    "family", [f for f in FAMILIES if f[1] > 1], ids=lambda f: f"{f[0].value}-s{f[1]}"
)
def test_strided_backlog_runs_on_its_stride(port, family):
    """A queued strided backlog is claimed with its own stride: its chunk
    is admitted (the memory charges fused cycles) and gathers or scatters
    the same slots as the scalar reference."""
    kind, stride = family
    ai, aj = np.divmod(VALID[family][:12], CFG.cols)
    values = None
    if port == "wr_cmd":
        values = np.arange(12 * CFG.lanes, dtype=np.uint64).reshape(12, -1)
    rounds = [{"wr_cmd": [], "rd_cmd0": [], "rd_cmd1": []}]
    rounds[0][port] = [AccessBlock(kind, ai, aj, stride=stride, values=values)]
    with scalar_reference():
        scalar = _run(rounds)
    batched = _run(rounds)
    for key in ("error", "cycles", "outputs", "stats", "memory"):
        assert batched[key] == scalar[key], key
    assert batched["fused"] >= 12
