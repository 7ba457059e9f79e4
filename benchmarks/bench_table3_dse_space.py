"""Table III — the DSE parameter grid, batched vs scalar evaluation.

Regenerates the parameter table and the feasible exploration columns
(which must match Table IV's 18 columns exactly), then benchmarks
``explore()`` — the vectorized config-space evaluation — against an
explicit scalar reference (``evaluate_point`` on each config) on the
full validated Table III sweep: one batched table
build and one slot-image validation pass per config family instead of
90 independent design builds.  Finally it re-runs the validated sweep against a fully
warm result cache, which must recompute nothing and finish in well under
a second.

Runs two ways:

* ``pytest benchmarks/bench_table3_dse_space.py`` — the benchmark suite
  entry;
* ``python benchmarks/bench_table3_dse_space.py --smoke`` — the CI
  perf-smoke gate: exits non-zero unless the batched sweep is >=
  ``MIN_BATCH_SPEEDUP``x faster than the scalar sweep, the two produce
  byte-identical points and report entries, pruning leaves the Pareto
  frontier untouched, and the warm-cache re-run stays within the
  ``exec.warm_cache_seconds`` gate.

The pytest entry writes the tracked
``benchmarks/out/table3_dse_space.{txt,json}``; ``--smoke`` writes the
untracked ``table3_dse_space_smoke.{txt,json}`` beside them, so a CI run
leaves the committed artifact as it is.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
import time

from _util import gate as declare_gate
from _util import save_report

from repro.dse import dse_report, explore
from repro.dse.explore import DsePoint, DseResult, evaluate_point
from repro.dse.pareto import pareto_frontier
from repro.dse.space import PAPER_SPACE
from repro.exec import Report, ReportEntry, ResultCache
from repro.hw.calibration import TABLE_IV_COLUMNS

#: rows validated per design: enough to exercise every pattern/port, small
#: enough to keep the scalar baseline in seconds
VALIDATE_ROWS = 8

#: CI gate: the batched sweep must beat the scalar one by this factor.
#: (Typically ~50x here; 2x keeps the gate robust on noisy runners.)
MIN_BATCH_SPEEDUP = 2.0


def regenerate():
    out = io.StringIO()
    out.write("TABLE III — POLYMEM DSE PARAMETERS\n")
    out.write(f"Total Size [KB]    : {list(PAPER_SPACE.capacities_kb)}\n")
    out.write("Number of lanes    : 8 (2 x 4), 16 (2 x 8)\n")
    out.write(f"Number of Read Ports: {list(PAPER_SPACE.read_ports)}\n")
    out.write(f"Schemes            : {[s.value for s in PAPER_SPACE.schemes]}\n")
    out.write(f"Data width         : {PAPER_SPACE.width_bits} bits\n\n")
    cols = PAPER_SPACE.columns()
    out.write(f"Feasible columns ({len(cols)}, = Table IV):\n")
    for cap, lanes, ports in cols:
        out.write(f"  {cap:5d} KB, {lanes:2d} lanes, {ports} read port(s)\n")
    return cols, out.getvalue()


def _scalar_explore():
    """The per-point reference: :func:`evaluate_point` on every config of
    ``explore()``'s grid, with the same params."""
    cfgs = list(PAPER_SPACE.points(feasible_only=True))
    params = {
        "validate": True,
        "validate_rows": VALIDATE_ROWS,
        "device": PAPER_SPACE.device.name,
    }
    values = [evaluate_point(cfg, **params) for cfg in cfgs]
    points = [DsePoint(config=cfg, **v) for cfg, v in zip(cfgs, values)]
    return DseResult(space=PAPER_SPACE, points=points)


def _timed_explore(batch: bool = True, cache=None):
    t0 = time.perf_counter()
    if batch:
        result = explore(validate=True, validate_rows=VALIDATE_ROWS, cache=cache)
    else:
        result = _scalar_explore()
    return result, time.perf_counter() - t0


def _entries_json(result) -> str:
    """The report's entry list — the byte-identity surface (``meta`` holds
    wall-clock accounting and is deliberately excluded)."""
    doc = json.loads(dse_report(result).to_json())
    return json.dumps(doc["entries"], sort_keys=True, separators=(",", ":"))


def _payloads_json(result) -> str:
    """Every point's sweep payload, as canonical JSON."""
    fields = ("paper_mhz", "model_mhz", "logic_pct", "lut_pct", "bram_pct",
              "validated")
    return json.dumps(
        [{f: getattr(p, f) for f in fields} for p in result.points],
        sort_keys=True,
        separators=(",", ":"),
    )


def _frontier_key(result):
    return [
        (c.label, c.read_gbps, c.bram_pct, c.logic_pct)
        for c in pareto_frontier(result)
    ]


def run_batch_vs_scalar() -> tuple[str, Report, list[str], list[dict]]:
    """The measurement shared by the pytest entry and ``--smoke``."""
    cols, text = regenerate()
    n_points = PAPER_SPACE.size()
    failures: list[str] = []
    if tuple(cols) != TABLE_IV_COLUMNS:
        failures.append("feasible columns diverge from Table IV")
    if n_points != 90:
        failures.append(f"expected 90 grid points, found {n_points}")

    out = io.StringIO()
    out.write(text)
    out.write(
        f"\nBATCHED vs SCALAR evaluation — validated sweep "
        f"({n_points} points, {VALIDATE_ROWS} rows each)\n"
    )

    # one untimed pass pays the one-time model-fit/plan-compile cost, so
    # the timed runs compare evaluation strategies, not who ran first;
    # best-of-2 keeps shared-runner noise out of the gate
    _timed_explore(batch=True)
    timings = {}
    results = {}
    for batch in (False, True):
        result, seconds = _timed_explore(batch)
        again, seconds2 = _timed_explore(batch)
        if seconds2 < seconds:
            result, seconds = again, seconds2
        label = "batched" if batch else "scalar"
        timings[label] = seconds
        results[label] = result
        out.write(f"  {label:8s}: {seconds * 1e3:8.1f} ms\n")

    speedup = timings["scalar"] / timings["batched"]
    out.write(f"  speedup : x{speedup:.1f}\n")

    # -- byte-identity: points and report entries ---------------------------
    scalar, batched = results["scalar"], results["batched"]
    identical = _entries_json(scalar) == _entries_json(batched)
    payloads_identical = _payloads_json(scalar) == _payloads_json(batched)
    out.write(
        f"  report entries identical: {identical}, "
        f"sweep payloads identical: {payloads_identical}\n"
    )
    if not identical:
        failures.append("batched report entries differ from scalar")
    if not payloads_identical:
        failures.append("batched sweep payloads differ from scalar")

    # -- prune exactness ----------------------------------------------------
    pruned = explore(prune=True)
    front_ok = _frontier_key(pruned) == _frontier_key(batched)
    out.write(
        f"  prune: {n_points} -> {len(pruned.points)} points, "
        f"frontier identical: {front_ok}\n"
    )
    if not front_ok:
        failures.append("pruned Pareto frontier differs from the full one")

    # -- warm-cache re-run --------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        _timed_explore(cache=cache)
        warm, warm_seconds = _timed_explore(cache=cache)
    warm_cached = n_points if warm.sweep.cached else 0
    if not warm.sweep.cached:
        failures.append(f"warm-cache re-run recomputed {n_points} points")
    if _payloads_json(warm) != _payloads_json(batched):
        failures.append("warm-cache payload differs from the computed one")
    warm_gate = declare_gate("exec.warm_cache_seconds", warm_seconds)
    out.write(
        f"  warm cache: {warm_seconds * 1e3:.1f} ms "
        f"({warm_cached}/{n_points} cached) — gate <= 1 s "
        f"{'PASS' if warm_gate['ok'] else 'FAIL'}\n"
    )
    if not warm_gate["ok"]:
        failures.append(f"warm-cache re-run took {warm_seconds:.2f} s (> 1 s)")

    gate = f"batched >= x{MIN_BATCH_SPEEDUP} vs scalar"
    batch_gate = declare_gate("dse.batched_vs_scalar", speedup)
    gate_ok = batch_gate["ok"]
    out.write(f"  gate: {gate} — {'PASS' if gate_ok else 'FAIL'}\n")
    if not gate_ok:
        failures.append(f"batch gate failed: {gate}, timings={timings}")

    report = Report(
        title="Table III DSE space — batched vs scalar evaluation",
        entries=[
            ReportEntry(
                experiment="dse.batch",
                quantity=f"validated sweep wall seconds ({label})",
                measured=round(seconds, 4),
                metrics={"points": n_points, "validate_rows": VALIDATE_ROWS},
            )
            for label, seconds in timings.items()
        ]
        + [
            ReportEntry(
                experiment="dse.batch",
                quantity="batched vs scalar speedup",
                measured=round(speedup, 2),
                ok=gate_ok,
                metrics={"gate": gate},
            ),
            ReportEntry(
                experiment="dse.batch",
                quantity="points surviving dominance pruning",
                measured=len(pruned.points),
                ok=front_ok,
                metrics={"candidates": n_points},
            ),
            ReportEntry(
                experiment="dse.batch",
                quantity="warm-cache re-run seconds",
                measured=round(warm_seconds, 4),
                ok=warm_gate["ok"],
                metrics={"cached": warm_cached},
            ),
        ],
    )
    return out.getvalue(), report, failures, [batch_gate, warm_gate]


def _save(name, text, report, gates):
    save_report(
        name,
        text,
        report,
        gates=gates,
        params={
            "workload": "table3.sweep",
            "scheme": "dse.batch",
            "points": PAPER_SPACE.size(),
            "validate_rows": VALIDATE_ROWS,
        },
    )


def test_table3_space(benchmark):
    cols, text = regenerate()
    assert tuple(cols) == TABLE_IV_COLUMNS
    assert PAPER_SPACE.size() == 90
    text_full, report, failures, gates = run_batch_vs_scalar()
    _save("table3_dse_space", text_full, report, gates)
    # the speedup gate is advisory under pytest (the --smoke CLI enforces
    # it); identity and frontier failures are always hard
    hard = [f for f in failures if "gate failed" not in f]
    assert not hard, hard
    benchmark(lambda: explore(validate=True, validate_rows=VALIDATE_ROWS))


def main(argv) -> int:
    text, report, failures, gates = run_batch_vs_scalar()
    _save("table3_dse_space_smoke", text, report, gates)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    if "--smoke" not in sys.argv:
        print("usage: python benchmarks/bench_table3_dse_space.py --smoke")
        raise SystemExit(2)
    raise SystemExit(main(sys.argv))
