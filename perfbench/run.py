"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the workload's own activity runs closed-loop (one
client, one process, no threads) for about *S* seconds in whole passes;
every other activity then repeats a short, fixed reference pass a few
times, so the run reports every end-to-end metric.  Host times are scaled
to a reference host speed (:mod:`clock`).  With ``--trace 1`` the activity runs
alternately plain and with the layer wrappers of :mod:`layers` installed,
prints the per-layer self-time table, and reports the per-layer metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 1
when an operation failed its check, 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import copy
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: set-ups per run; setup_s is their median
SETUP_SAMPLES = 3

#: end-to-end metrics (printed with --trace 0) and their units
END_TO_END = {
    "cli_experiments_s": "s",
    "cli_dse_s": "s",
    "cli_stream_s": "s",
    "cli_whatif_s": "s",
    "dse_points_per_s": "points/s",
    "whatif_words_per_s": "words/s",
    "sim_cycles_per_s": "cycles/s",
    "kernel_read_aps": "accesses/s",
    "kernel_write_aps": "accesses/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metrics timed by one wrapper: mean inclusive seconds per call
WRAPPER_METRICS = {
    "experiments.run_scorecard_s": "experiments.run_scorecard",
    "experiments.render_s": "experiments.render",
    "exec.run_sweep_s": "exec.run_sweep",
    "dse.explore_s": "dse.explore",
    "dse.whatif_devices_s": "dse.whatif_devices",
    "hw.default_model_s": "hw.default_model",
    "hw.estimate_many_s": "hw.estimate_many",
    "maxpolymem.validate_points_batch_s": "maxpolymem.validate_points_batch",
    "maxpolymem.validate_config_s": "maxpolymem.validate_config",
    "core.compile_plan_batch_s": "core.compile_plan_batch",
    "core.replay_s": "core.replay",
    "backend.achieved_bandwidth_s.bram": "backend.achieved_bandwidth.bram",
    "backend.achieved_bandwidth_s.dram": "backend.achieved_bandwidth.dram",
    "backend.achieved_bandwidth_s.sharded": "backend.achieved_bandwidth.sharded",
    "backend.plan_layout_s": "backend.plan_layout",
    "maxeler.run_kernel_s": "maxeler.run_kernel",
    "stream_bench.load_s": "stream_bench.load",
    "stream_bench.compute_s": "stream_bench.compute",
    "stream_bench.offload_s": "stream_bench.offload",
    "program.compile_s": "program.compile",
    "program.fusion_plan_s": "program.fusion_plan",
    "program.execute_s": "program.execute",
}

#: per-layer metrics (printed with --trace 1) and their units
PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_dse_s": "s",
    "cli.experiments.work_s": "s",
    "cli.dse.work_s": "s",
    "cli.stream.work_s": "s",
    "cli.whatif.work_s": "s",
    **{name: "s" for name in WRAPPER_METRICS},
    "exec.cache.hit_rate": "ratio",
    "dse.points": "points",
    "dse.batch.scalar_share": "ratio",
    "core.plan_cache.hit_rate": "ratio",
    "backend.layout.table_words_per_touched": "ratio",
    "backend.dram.row_hit_rate": "ratio",
    "maxeler.cycles_per_chunk": "cycles",
    "maxeler.batched_cycle_share": "ratio",
    "maxeler.plan_rejects": "count",
    "maxeler.pcie_calls": "count",
    "program.kernel_cache.hit_rate": "ratio",
    "program.fused_step_share": "ratio",
    "kernels.matmul.aps": "accesses/s",
    "kernels.stencil.aps": "accesses/s",
    "kernels.reduce.aps": "accesses/s",
    "kernels.transpose.aps": "accesses/s",
    "kernels.jacobi.aps": "accesses/s",
    "kernels.store.aps": "accesses/s",
    "sim_copy_mbps": "MB/s",
    "trace_overhead": "ratio",
    "unattributed_share": "ratio",
    "error_rate": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    from activities import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs and one set-up (self-test)")
    parser.add_argument("--goldens", default=None, metavar="DIR",
                        help="golden directory (default: perfbench/goldens)")
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt the first checked output (self-test)")
    return parser.parse_args(argv)


def run_for(seconds: float, one_pass) -> int:
    """Run whole passes for about *seconds*; returns how many ran.

    Another pass starts while it would end nearer the target than
    stopping now does."""
    start = time.perf_counter()
    passes = 0
    while True:
        t0 = time.perf_counter()
        one_pass()
        passes += 1
        now = time.perf_counter()
        if now - start + (now - t0) / 2 >= seconds:
            return passes


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def setup_probe(bench, workload: str, setups: list) -> None:
    """Add the (start, end) marks of one set-up in a fresh interpreter."""
    with bench.outcomes.op(f"fresh set-up of {workload}") as problems:
        proc, start, end = bench.run_child(
            [sys.executable, str(HERE / "child.py"), "setup", workload, str(bench.seed)]
        )
        if proc.returncode != 0:
            problems.append(proc.stderr[-600:])
        else:
            setups.append((start, end))


def measure(bench, workload: str, seconds: float) -> dict[str, float]:
    import numpy as np

    from activities import WORKLOADS, CliCold

    rng = np.random.default_rng(bench.seed)
    own_cls = WORKLOADS[workload]
    own = own_cls(bench)
    samples = 1 if bench.tiny else SETUP_SAMPLES
    setups = []
    if own_cls is CliCold:
        for _ in range(samples):
            start = bench.mark()
            own.setup()
            setups.append((start, bench.mark()))
    else:
        # every sample starts cold; the set-up the passes use is untimed
        for _ in range(samples):
            setup_probe(bench, workload, setups)
        own.setup()
    run_for(seconds, lambda: own.run_pass(rng))
    metrics = own.e2e()
    metrics["setup_s"] = bench.median_scaled(setups)
    metrics["peak_rss_mb"] = peak_rss_mb(children=own_cls is CliCold)
    others = []
    for cls in WORKLOADS.values():
        if cls is own_cls:
            continue
        other = cls(bench)
        if cls is CliCold:
            other.warm_in_process()
        else:
            other.setup()
        others.append(other)
    # round-robin, so each activity's samples span the whole reference
    # stretch rather than one state of the host's speed
    for n in range(max(other.REFERENCE_PASSES for other in others)):
        for other in others:
            if n < other.REFERENCE_PASSES:
                other.run_pass(rng, reference=True)
    for other in others:
        metrics.update(other.e2e())
    return metrics


def counter_metrics(counters: dict, passes: int, explore_calls: int) -> dict[str, float]:
    """Per-layer ratios from the ``repro.telemetry`` counters of the traced passes."""
    c = lambda name: counters.get(name, 0)  # noqa: E731

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "exec.cache.hit_rate": ratio(c("exec.cache.hits"),
                                     c("exec.cache.hits") + c("exec.cache.misses")),
        "dse.points": ratio(c("dse.batch.candidates") - c("dse.batch.pruned"),
                            explore_calls),
        "core.plan_cache.hit_rate": ratio(
            c("polymem.plan_cache.hits"),
            c("polymem.plan_cache.hits") + c("polymem.plan_cache.misses"),
        ),
        "backend.layout.table_words_per_touched": ratio(
            c("backend.layout.words"), c("backend.layout.touched_words")
        ),
        "backend.dram.row_hit_rate": ratio(
            c("backend.dram.row_hits"),
            c("backend.dram.row_hits") + c("backend.dram.row_misses"),
        ),
        "maxeler.cycles_per_chunk": ratio(c("sim.cycles.batched"), c("sim.chunks")),
        "maxeler.batched_cycle_share": ratio(
            c("sim.cycles.batched"), c("sim.cycles.batched") + c("sim.cycles.scalar")
        ),
        "maxeler.plan_rejects": ratio(c("sim.plan_rejects"), passes),
        "maxeler.pcie_calls": ratio(c("pcie.calls"), passes),
        "program.kernel_cache.hit_rate": ratio(
            c("program.fusion.kernel_cache.hits"),
            c("program.fusion.kernel_cache.hits")
            + c("program.fusion.kernel_cache.misses"),
        ),
        "program.fused_step_share": (
            1.0 - ratio(c("program.fusion.fallback_steps"), c("program.fusion.steps"))
            if c("program.fusion.steps") else 0.0
        ),
    }


def traced(bench, workload: str, seconds: float) -> dict[str, float]:
    import numpy as np

    from activities import WORKLOADS, CliCold
    from layers import LayerTracer

    rng = np.random.default_rng(bench.seed)
    own = WORKLOADS[workload](bench)
    own.setup()
    tracer = LayerTracer()
    if isinstance(own, CliCold):
        passes = run_for(seconds, lambda: own.traced_pass(rng, tracer))
        pairs = own.pairs
        own.traced_cold(tracer)
        counters = own.counters
    else:
        from repro.telemetry import Telemetry, session

        tel = Telemetry(label=workload)
        pairs = []

        def pair():
            """One pass plain and one traced on the same inputs; which runs
            first alternates from pair to pair."""
            twin = copy.deepcopy(rng)
            walls = {}
            order = (True, False) if len(pairs) % 2 else (False, True)
            for traced_pass, pass_rng in zip(order, (rng, twin)):
                t0 = time.perf_counter()
                if not traced_pass:
                    own.run_pass(pass_rng)
                else:
                    bench.tracer = tracer
                    try:
                        with tracer.traced(), session(tel):
                            own.run_pass(pass_rng)
                    finally:
                        bench.tracer = None
                walls[traced_pass] = time.perf_counter() - t0
            pairs.append((walls[False], walls[True]))

        passes = run_for(seconds, pair)
        counters = tel.metrics.to_dict()["counters"]
    for name in tracer.missing(own.EXPECTED):
        with bench.outcomes.op(f"wrapper {name} on {workload}") as problems:
            problems.append("recorded no calls where its layer runs")
    overhead = (
        statistics.median(t for _, t in pairs) / statistics.median(p for p, _ in pairs)
        if pairs else 0.0
    )
    print(tracer.table(workload))
    print(f"  trace_overhead {overhead:.3f} (median traced wall / median plain wall "
          f"over {len(pairs)} pairs)")
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for metric, name in WRAPPER_METRICS.items():
        stat = tracer.stats[name]
        metrics[metric] = stat.inclusive / stat.calls if stat.calls else 0.0
    metrics.update(
        counter_metrics(counters, passes, tracer.stats["dse.explore"].calls)
    )
    metrics.update(own.layer_metrics(tracer, counters))
    metrics["trace_overhead"] = overhead
    metrics["unattributed_share"] = tracer.unattributed_share()
    out = bench.outcomes
    metrics["error_rate"] = out.failed / out.attempted if out.attempted else 0.0
    return metrics


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    from activities import GOLDENS, Bench

    bench = Bench(args.seed, goldens=args.goldens or GOLDENS,
                  inject_fault=args.inject_fault, tiny=args.tiny)
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    try:
        if args.trace:
            metrics, units = traced(bench, args.workload, args.seconds), PER_LAYER
        else:
            bench.clock.start()
            try:
                metrics, units = measure(bench, args.workload, args.seconds), END_TO_END
            finally:
                bench.clock.stop()
    finally:
        bench.close()
    out = bench.outcomes
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
