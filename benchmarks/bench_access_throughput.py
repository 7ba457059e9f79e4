"""Access-path throughput: scalar step vs planned step vs batched replay.

The access-plan compiler caches the anchor-invariant half of each access
family and ``PolyMem.replay`` executes whole traces as fancy-indexed
NumPy operations.  This bench measures accesses/second through four
paths on the same workload — a stream of conflict-free ROW reads plus a
rectangle write stream — across schemes and lane counts:

* **scalar step** — ``use_plans = False``: the reference path, re-deriving
  AGU expansion, MAF, conflict check and shuffle per access;
* **planned step** — the default per-access path, applying the compiled
  plan per ``step()``;
* **batched replay** — one :class:`AccessTrace` for the whole stream;
* **access program** — the stream lowered through the
  :class:`~repro.program.AccessProgram` IR and run by
  :func:`~repro.program.execute`: the fusion pass specializes the
  segment group into a precomputed fancy-index kernel, cached
  content-addressed, so repeat executions skip plan expansion and
  collision ordering entirely.  It is timed twice: on a *cold* kernel
  cache (the whole pipeline — construction, compilation, fusion — for a
  first execution) and *warm* (a repeat execution hitting the cache).

All paths are bit-identical (asserted here on results and cycles;
property-tested in ``tests/core/test_plan_equivalence.py`` and
``tests/program/test_engine_equivalence.py``).  The headline acceptances
are >= 10x for replay vs the per-access ``step()`` and >= 2x for the
warm program path vs direct replay, both on the 64-lane RoCo
configuration; the cold program path must keep >= 0.9x of
direct-replay throughput (lowering and fusion add per-program, not
per-cycle, work).  The smoke variant backs the CI perf gates — replay
and the cold program >= 2x the scalar step on a small config, the warm
program >= 2x direct replay on a longer stream (its fixed fusion cost
only amortizes over enough accesses) — and snapshots the fusion
telemetry counters to ``benchmarks/out/fusion_counters_smoke.json``.
Run directly with ``--smoke`` for the gates only.
"""

import io
import json
import sys
import time

import numpy as np

from _util import OUT_DIR, exit_on_failed_gates, gate, save_report

from repro.core.agu import AccessRequest
from repro.core.config import PolyMemConfig
from repro.core.patterns import PatternKind
from repro.core.plan import AccessTrace
from repro.core.polymem import PolyMem
from repro.core.schemes import Scheme
from repro.exec import Report, ReportEntry
from repro.program import AccessProgram, execute, kernel_cache

#: (label, p, q, scheme) — the 64-lane RoCo row is the acceptance target
CONFIGS = (
    ("8-lane ReRo", 2, 4, Scheme.ReRo),
    ("16-lane RoCo", 4, 4, Scheme.RoCo),
    ("64-lane RoCo", 8, 8, Scheme.RoCo),
)


def _workload(p, q, scheme, accesses, seed=7):
    """A memory plus a conflict-free read/write anchor stream.

    The memory is sized so the write stream can cover ``accesses``
    *distinct* blocks (a streaming store, STREAM-style — no block is
    rewritten within the trace)."""
    lanes = p * q
    rows = cols = max(4 * lanes, 64)
    while (rows // p) * (cols // q) < accesses:
        rows = cols = rows * 2
    pm = PolyMem(
        PolyMemConfig(rows * cols * 8, p=p, q=q, scheme=scheme,
                      rows=rows, cols=cols)
    )
    rng = np.random.default_rng(seed)
    pm.load(rng.integers(0, 2**63, size=(rows, cols), dtype=np.uint64))
    pm.reset_stats()
    # lane-aligned ROW reads are conflict-free under every tested scheme
    ri = rng.integers(0, rows, size=accesses)
    rj = rng.integers(0, cols // lanes, size=accesses) * lanes
    nbj = cols // q
    blocks = rng.permutation((rows // p) * nbj)[:accesses]
    wi = (blocks // nbj) * p
    wj = (blocks % nbj) * q
    values = rng.integers(0, 2**63, size=(accesses, lanes), dtype=np.uint64)
    return pm, (ri, rj, wi, wj, values)


def _serial_pass(pm, stream, use_plans):
    ri, rj, wi, wj, values = stream
    pm.use_plans = use_plans
    t0 = time.perf_counter()
    out = np.empty((ri.size, pm.lanes), dtype=np.uint64)
    for t in range(ri.size):
        res = pm.step(
            reads=[(0, AccessRequest(PatternKind.ROW, int(ri[t]), int(rj[t])))],
            write=(
                AccessRequest(PatternKind.RECTANGLE, int(wi[t]), int(wj[t])),
                values[t],
            ),
        )
        out[t] = res[0]
    wall = time.perf_counter() - t0
    pm.use_plans = True
    return out, wall


def _replay_pass(pm, stream):
    ri, rj, wi, wj, values = stream
    trace = (
        AccessTrace()
        .read(PatternKind.ROW, ri, rj)
        .write(PatternKind.RECTANGLE, wi, wj, values)
    )
    t0 = time.perf_counter()
    out = pm.replay(trace)[0]
    return out, time.perf_counter() - t0


def _program_pass(pm, stream, cold=False):
    """The same stream through the access-program IR, end to end.

    The write fuses with the read stream, so the coalescer emits the
    exact trace ``_replay_pass`` builds by hand; the timed region covers
    program construction, compilation and the engine's bookkeeping — the
    whole cost of choosing the IR over a hand-built trace.  Repeat
    executions of the same access structure hit the content-addressed
    kernel cache; ``cold`` empties it first, so the pass also pays for
    building the fused kernel."""
    ri, rj, wi, wj, values = stream
    if cold:
        kernel_cache.clear()
    t0 = time.perf_counter()
    program = (
        AccessProgram("bench-stream")
        .read(PatternKind.ROW, ri, rj, tag="out")
        .write(PatternKind.RECTANGLE, wi, wj, values, fuse=True)
    )
    out = execute(program, pm)["out"]
    return out, time.perf_counter() - t0


#: interleaved repeats of the batched passes; the few-ms passes share a
#: noisy host, so ratios between them are medians of per-repeat ratios
_BATCHED_REPEATS = 15


def _interleaved(passes, p, q, scheme, accesses):
    """Time *passes* (name -> pass) on fresh workloads, back to back
    within each repeat, in an order reversed every other repeat, so host
    noise and order effects land on both sides of a per-repeat ratio
    alike.  Returns each pass's result and cycle count, and its walls
    per repeat."""
    results, cycles = {}, {}
    rep_walls = {path: [] for path in passes}
    order = list(passes.items())
    for r in range(_BATCHED_REPEATS):
        for path, fn in order if r % 2 == 0 else order[::-1]:
            pm, stream = _workload(p, q, scheme, accesses)
            results[path], w = fn(pm, stream)
            rep_walls[path].append(w)
            cycles[path] = pm.cycles
    return results, cycles, rep_walls


def _median_ratio(rep_walls, path, over):
    """The median over repeats of *path*'s speedup over *over*."""
    return float(np.median(np.divide(rep_walls[over], rep_walls[path])))


def _measure(label, p, q, scheme, accesses):
    results = {}
    walls = {}
    cycles = {}
    for path in ("scalar", "planned"):
        # the serial passes self-average over hundreds of ms
        pm, stream = _workload(p, q, scheme, accesses)
        results[path], walls[path] = _serial_pass(
            pm, stream, use_plans=(path == "planned")
        )
        cycles[path] = pm.cycles
    # batched throughput is best-of-repeats, ratios between batched paths
    # are the median of the per-repeat ratios
    batched = {
        "replay": _replay_pass,
        "program_cold": lambda pm, s: _program_pass(pm, s, cold=True),
        "program": _program_pass,
    }
    batched_results, batched_cycles, rep_walls = _interleaved(
        batched, p, q, scheme, accesses
    )
    results.update(batched_results)
    cycles.update(batched_cycles)
    for path, ws in rep_walls.items():
        walls[path] = min(ws)

    assert np.array_equal(results["scalar"], results["planned"])
    assert np.array_equal(results["scalar"], results["replay"])
    assert np.array_equal(results["scalar"], results["program_cold"])
    assert np.array_equal(results["scalar"], results["program"])
    assert (
        cycles["scalar"] == cycles["planned"] == cycles["replay"]
        == cycles["program_cold"] == cycles["program"]
    )
    # each cycle carries one read and one write: 2 accesses per cycle
    n_acc = 2 * accesses
    aps = {path: n_acc / wall for path, wall in walls.items()}
    return {
        "label": label,
        "lanes": p * q,
        "scheme": str(scheme),
        "accesses": n_acc,
        "cycles": cycles["replay"],
        "scalar_aps": aps["scalar"],
        "planned_aps": aps["planned"],
        "replay_aps": aps["replay"],
        "program_cold_aps": aps["program_cold"],
        "program_aps": aps["program"],
        "planned_speedup": aps["planned"] / aps["scalar"],
        "replay_vs_planned": aps["replay"] / aps["planned"],
        "replay_vs_scalar": aps["replay"] / aps["scalar"],
        "program_cold_vs_replay": _median_ratio(
            rep_walls, "program_cold", over="replay"
        ),
        "program_vs_scalar": aps["program_cold"] / aps["scalar"],
        "program_vs_replay": _median_ratio(rep_walls, "program", over="replay"),
    }


_HEADER = (
    "PRF access-path throughput — scalar/planned step vs replay vs program\n"
    "(one ROW read + one RECTANGLE write per cycle; results and cycle\n"
    "counts bit-identical by assertion; program timed on a cold and a\n"
    f"warm kernel cache; batched a/s best of {_BATCHED_REPEATS} interleaved repeats,\n"
    "prog/replay the median of per-repeat ratios)\n\n"
    f"{'config':>14s} {'accesses':>9s} {'scalar a/s':>11s} "
    f"{'planned a/s':>12s} {'replay a/s':>12s} {'cold a/s':>12s} "
    f"{'program a/s':>12s} {'replay/step':>12s} {'prog/replay':>13s}\n"
)


def _row(m):
    return (
        f"{m['label']:>14s} {m['accesses']:9d} {m['scalar_aps']:11.0f} "
        f"{m['planned_aps']:12.0f} {m['replay_aps']:12.0f} "
        f"{m['program_cold_aps']:12.0f} {m['program_aps']:12.0f} "
        f"{m['replay_vs_planned']:11.1f}x {m['program_vs_replay']:12.2f}x\n"
    )


def _entry(m):
    return ReportEntry(
        experiment="access throughput",
        quantity=f"{m['label']} replay vs per-access step [x]",
        measured=round(m["replay_vs_planned"], 2),
        metrics={
            "lanes": m["lanes"],
            "scheme": m["scheme"],
            "accesses": m["accesses"],
            "cycles": m["cycles"],
            "scalar_accesses_per_s": round(m["scalar_aps"]),
            "planned_accesses_per_s": round(m["planned_aps"]),
            "replay_accesses_per_s": round(m["replay_aps"]),
            "program_cold_accesses_per_s": round(m["program_cold_aps"]),
            "program_accesses_per_s": round(m["program_aps"]),
            "replay_vs_scalar": round(m["replay_vs_scalar"], 2),
            "program_cold_vs_replay": round(m["program_cold_vs_replay"], 2),
            "program_vs_replay": round(m["program_vs_replay"], 2),
        },
    )


#: the fused gate needs a longer stream: its fixed cost (program compile,
#: group hashing) only amortizes over enough accesses
_FUSED_SMOKE_ACCESSES = 4096


def _smoke_measure():
    return _measure("8-lane ReRo", 2, 4, Scheme.ReRo, 512)


def _fused_smoke_measure():
    """The fused-kernel CI gate: the warm program path vs direct replay
    on a longer 8-lane stream, plus a fusion-counter telemetry snapshot.

    The gate is the median of interleaved per-repeat ratios."""
    from repro.telemetry import Telemetry, session

    # one untimed pass builds the fused kernel and the access plans, so
    # every timed pass runs the warm path the gate is about
    _program_pass(*_workload(2, 4, Scheme.ReRo, _FUSED_SMOKE_ACCESSES))
    results, _, rep_walls = _interleaved(
        {"replay": _replay_pass, "program": _program_pass},
        2, 4, Scheme.ReRo, _FUSED_SMOKE_ACCESSES,
    )
    assert np.array_equal(results["replay"], results["program"])
    # one extra (untimed) fused pass inside a telemetry session: the
    # fusion counters CI archives as the regression snapshot
    tel = Telemetry(label="access_throughput_smoke")
    with session(tel):
        pm, stream = _workload(2, 4, Scheme.ReRo, _FUSED_SMOKE_ACCESSES)
        _program_pass(pm, stream)
    counters = tel.snapshot()["metrics"]["counters"]
    fusion_counters = {
        k: v
        for k, v in sorted(counters.items())
        if k.startswith("program.fusion.") or k == "polymem.cycles.fused"
    }
    return {
        "accesses": 2 * _FUSED_SMOKE_ACCESSES,
        "program_vs_replay": _median_ratio(rep_walls, "program", over="replay"),
        "fusion_counters": fusion_counters,
    }


def _save_fusion_counters(fused):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / "fusion_counters_smoke.json"
    path.write_text(json.dumps(fused["fusion_counters"], indent=2) + "\n")
    print(f"[fusion_counters_smoke] written to {path}")
    return path


def _smoke_gates(m, fused) -> list[dict]:
    """The three CI access gates, from the declarative gate table."""
    return [
        gate("access.replay_vs_scalar", m["replay_vs_scalar"]),
        gate("access.program_vs_scalar", m["program_vs_scalar"]),
        gate("access.fused_vs_replay", fused["program_vs_replay"]),
    ]


def _smoke_report(m, fused):
    report = Report(title="Access plans perf smoke (8-lane ReRo)")
    report.entries.append(_entry(m))
    report.entries.append(
        ReportEntry(
            experiment="access throughput",
            quantity="fused program vs direct replay [x]",
            measured=round(fused["program_vs_replay"], 2),
            metrics={
                "accesses": fused["accesses"],
                **fused["fusion_counters"],
            },
        )
    )
    save_report(
        "access_throughput_smoke",
        _HEADER + _row(m),
        report,
        gates=_smoke_gates(m, fused),
        params={
            "workload": "access.stream",
            "scheme": m["scheme"],
            "lanes": m["lanes"],
            "accesses": m["accesses"],
            "fused_accesses": fused["accesses"],
        },
    )
    _save_fusion_counters(fused)


def test_access_throughput_report(benchmark):
    out = io.StringIO()
    out.write(_HEADER)
    report = Report(title="Access plans: scalar vs planned vs replay")
    by_label = {}
    for label, p, q, scheme in CONFIGS:
        m = _measure(label, p, q, scheme, 4096)
        by_label[label] = m
        out.write(_row(m))
        report.entries.append(_entry(m))
    save_report("access_throughput", out.getvalue(), report)

    # the headline acceptance: >= 10x replay vs per-access step() on the
    # 64-lane RoCo configuration
    assert by_label["64-lane RoCo"]["replay_vs_planned"] >= 10
    assert by_label["64-lane RoCo"]["replay_vs_scalar"] >= 10
    # fused-kernel acceptance: the specialized kernel must beat direct
    # replay >= 2x on the 64-lane RoCo configuration
    assert by_label["64-lane RoCo"]["program_vs_replay"] >= 2.0
    # lowering-overhead acceptance: the cold program pipeline (lowering
    # plus fusion) must keep >= 0.9x of direct-replay throughput on every
    # configuration
    for m in by_label.values():
        assert m["program_cold_vs_replay"] >= 0.9, m["label"]

    pm, stream = _workload(8, 8, Scheme.RoCo, 4096)
    benchmark(lambda: _replay_pass(pm, stream))


def test_access_throughput_smoke(benchmark):
    """The CI perf gates: batched replay and the cold program must be
    >= 2x the scalar step (the cold fixed lowering and fusion cost only
    amortizes over long streams, so its 0.9x-of-replay gate lives in the
    report test), and the warm program must be >= 2x direct replay on
    the longer fused-gate stream."""
    m = _smoke_measure()
    fused = _fused_smoke_measure()
    _smoke_report(m, fused)
    assert m["replay_vs_scalar"] >= 2.0
    assert m["program_vs_scalar"] >= 2.0
    assert fused["program_vs_replay"] >= 2.0
    pm, stream = _workload(2, 4, Scheme.ReRo, 512)
    benchmark(lambda: _replay_pass(pm, stream))


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        m = _smoke_measure()
        fused = _fused_smoke_measure()
        _smoke_report(m, fused)
        exit_on_failed_gates(_smoke_gates(m, fused))
    else:
        out = io.StringIO()
        out.write(_HEADER)
        report = Report(title="Access plans: scalar vs planned vs replay")
        for label, p, q, scheme in CONFIGS:
            m = _measure(label, p, q, scheme, 4096)
            out.write(_row(m))
            report.entries.append(_entry(m))
        save_report("access_throughput", out.getvalue(), report)
