"""Command-line interface: ``python -m repro`` (or the ``polymem`` script).

Subcommands map one-to-one onto the paper's artifacts:

* ``info``         — package overview and the Table I scheme matrix;
* ``validate``     — build a configuration and run the §IV-A validation;
* ``dse``          — the §IV design-space exploration (Table IV, Figs 4-8);
* ``whatif``       — sweep one configuration across device backends
  (BRAM parts, DDR/HBM channel systems, multi-DFE sharding);
* ``stream``       — the §V STREAM experiment (Fig. 10);
* ``schedule``     — the §III-A access-schedule optimizer;
* ``productivity`` — the §III-C Table II analysis;
* ``experiments``  — the full paper-vs-reproduction scorecard;
* ``report``       — a vendor-style synthesis estimate for one config;
* ``telemetry``    — inspect recorded telemetry: ``summary`` (one
  snapshot), ``ledger`` (the run ledger), ``regress`` (gates vs a
  baseline window).

The grid-shaped subcommands (``dse``, ``experiments``) run on the
:mod:`repro.exec` runtime and share three flags (``stream`` and
``stream run`` take ``--json`` only):

``--cache-dir PATH``
    Where the content-addressed result cache lives (default:
    ``$REPRO_CACHE_DIR``, else ``~/.cache/repro``).  Warm re-runs skip
    every sweep point whose (config, model version, experiment) hash is
    unchanged.
``--no-cache``
    Disable the result cache for this invocation.
``--json [PATH]``
    Emit the unified ``repro.exec.report`` JSON schema to *PATH*
    (``-`` or no value: stdout) instead of only the human tables.

They (plus ``stream``, ``stream run`` and ``program dump``) also share the
:mod:`repro.telemetry` flags:

``--metrics``
    Run inside a telemetry session and print the metrics summary —
    counters, gauges, histograms, and paper-relevant derived values
    (stall %, scalar-fallback %, plan-cache hit rate, achieved vs peak
    bandwidth).  The same snapshot lands in ``meta["telemetry"]`` of any
    ``--json`` report (``repro telemetry summary FILE`` re-renders it).
``--trace-out PATH``
    Also record a span trace (host call → PCIe DMA → kernel → program
    segment → trace replay → compute boundary) and write
    Chrome-trace-event JSON to *PATH* for https://ui.perfetto.dev.
``--profile-spans PATTERN``
    Run cProfile inside wall spans whose name fnmatches *PATTERN*; the
    top functions by cumulative time attach to each span's trace args
    (and print to stderr when no ``--trace-out`` is given), localizing
    a regression to a span *and* the Python frames under it.

``program dump`` adds one flag of its own on top of ``--json`` (same
semantics as above — one helper, :func:`_add_json_arg`, defines the flag
everywhere), and always includes the fusion plan summary — groups
formed, fused vs fallback steps with the reason for each fallback,
kernel-cache hits/misses — for programs with live memories bound
(describe-only programs cannot be fusion-planned):

``--stats``
    Dry per-segment cycle/element counts derived from the compiled
    trace shapes (no execution).

Configuration-taking subcommands (``validate``, ``report``) build their
:class:`~repro.core.config.PolyMemConfig` through the single
:meth:`PolyMemConfig.from_any` surface (``--config`` file, flags, or both).
An invalid configuration prints ``polymem <cmd>: error: <message>`` on
stderr and exits with status 2.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main", "build_parser"]


def _add_config_args(sub) -> None:
    from .core.schemes import Scheme

    sub.add_argument(
        "--config", help="PolyMem configuration file (key=value or JSON)"
    )
    sub.add_argument("--capacity-kb", type=int, default=512)
    sub.add_argument("-p", type=int, default=2, help="lane-grid rows")
    sub.add_argument("-q", type=int, default=4, help="lane-grid columns")
    sub.add_argument(
        "--scheme", default="ReRo", choices=[s.value for s in Scheme]
    )
    sub.add_argument("--ports", type=int, default=1, help="read ports")


def _add_json_arg(sub, *, what: str = "the unified JSON report") -> None:
    """The shared ``--json [PATH]`` flag — one definition for every
    subcommand so semantics ('-' or no value: stdout) never drift."""
    sub.add_argument(
        "--json",
        dest="json_out",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help=f"emit {what} ('-' or no value: stdout)",
    )


def _add_exec_args(sub) -> None:
    """The shared repro.exec runtime flags (see the module docstring)."""
    sub.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache",
    )
    sub.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="result-cache directory (default: $REPRO_CACHE_DIR or "
        "~/.cache/repro)",
    )
    _add_json_arg(sub)
    _add_telemetry_args(sub)


def _add_telemetry_args(sub) -> None:
    """The shared telemetry flags: a metrics summary and a Perfetto trace."""
    sub.add_argument(
        "--metrics",
        action="store_true",
        help="collect run telemetry and print the metrics summary "
        "(counters + derived stall/fallback/bandwidth figures)",
    )
    sub.add_argument(
        "--trace-out",
        dest="trace_out",
        default=None,
        metavar="PATH",
        help="record a span trace and write Chrome-trace-event JSON to "
        "PATH (load it at https://ui.perfetto.dev)",
    )
    sub.add_argument(
        "--profile-spans",
        dest="profile_spans",
        default=None,
        metavar="PATTERN",
        help="run cProfile inside wall spans matching PATTERN (fnmatch, "
        "e.g. 'segment.*'); the top functions land in each span's trace "
        "args and are printed when no --trace-out is given",
    )


def _cache_from_args(args):
    from .exec import ResultCache, default_cache_dir

    if getattr(args, "no_cache", False):
        return None
    return ResultCache(args.cache_dir or default_cache_dir())


def _emit_json(args, report) -> None:
    report.attach_telemetry()  # no-op unless a telemetry session is active
    if args.json_out is None:
        return
    if args.json_out == "-":
        print(report.to_json())
    else:
        report.save(args.json_out)
        print(f"JSON report written to {args.json_out}")


def _print_or_write(path: str, text: str, what: str) -> None:
    """``--json -`` prints *text*; a path gets it written, its missing
    directories created."""
    if path == "-":
        print(text)
        return
    from .util.output import write_text

    write_text(path, text + "\n")
    print(f"{what} written to {path}")


def _sweep_stats_line(sweep) -> str:
    return (
        f"sweep: {len(sweep.results)} points "
        f"({sweep.n_cached} cached, {sweep.n_computed} computed) "
        f"in {sweep.wall_seconds:.3f} s"
    )


def cmd_info(args) -> int:
    from . import __version__
    from .core.conflict import ConflictAnalyzer

    analyzer = ConflictAnalyzer(args.p, args.q)
    print(f"repro {__version__} — MAX-PolyMem reproduction")
    print("schemes and conflict-free patterns "
          f"(empirical, {args.p}x{args.q} lanes):")
    table = analyzer.table()
    for scheme, row in table.items():
        pats = [
            f"{k.value}[{d.label}]" for k, d in row.items() if d.label != "none"
        ]
        print(f"  {scheme.value:5s}: {', '.join(pats)}")
    return 0


def cmd_validate(args) -> int:
    from .maxpolymem import build_design, validate_design, validated_rows

    cfg = _config_from_args(args)
    validated_rows(cfg, args.max_rows)  # a bad region fails before any output
    design = build_design(cfg, style=args.style, clock_source="auto")
    print(f"validating {cfg.label()} ({args.style}, "
          f"{design.dfe.clock_mhz:.0f} MHz) ...")
    report = validate_design(design, max_rows=args.max_rows)
    print(f"  writes: {report.writes}, reads: {report.reads}")
    if report.passed:
        print("  PASSED — every pattern read back the expected data")
        return 0
    for m in report.mismatches[:10]:
        print(f"  MISMATCH: {m}")
    return 1


def cmd_dse(args) -> int:
    from .dse import (
        dse_report,
        explore,
        figure_series,
        render_series_table,
        render_table_iv,
    )

    if args.load:
        from .util import load_dse_result

        result = load_dse_result(_require_file(args.load))
    else:
        result = explore(
            cache=_cache_from_args(args),
            prune=args.prune,
            backend=args.backend,
        )
    if result.backend is not None:
        print(f"device backend: {result.backend} "
              f"(synthesis on {result.space.device.name})")
    if args.save:
        from .util import save_dse_result

        save_dse_result(result, args.save)
        print(f"sweep saved to {args.save}")
    print(render_table_iv(result, source=args.source))
    print(f"peak write bandwidth: {result.peak_write_gbps:.1f} GB/s")
    print(f"peak read  bandwidth: {result.peak_read_gbps:.1f} GB/s")
    if result.sweep is not None:
        print(_sweep_stats_line(result.sweep))
    if args.figures:
        metrics = {
            "fig4 write bandwidth [GB/s]": lambda p: p.bandwidth.write_gbps,
            "fig5 read bandwidth [GB/s]": lambda p: p.bandwidth.read_gbps,
            "fig6 logic [%]": lambda p: p.logic_pct,
            "fig7 LUT [%]": lambda p: p.lut_pct,
            "fig8 BRAM [%]": lambda p: p.bram_pct,
        }
        for title, fn in metrics.items():
            print(render_series_table(figure_series(result, fn), title, ""))
    _emit_json(args, dse_report(result))
    return 0


def _require_positive(what: str, count: int, least: int = 1) -> None:
    from .core.exceptions import ConfigurationError

    if count < least:
        raise ConfigurationError(f"{what} must be >= {least}, got {count}")


def cmd_stream(args) -> int:
    from .exec import Report, ReportEntry
    from .stream_bench import StreamHarness, all_apps, stream_report, sweep_fig10

    _require_positive("--runs", args.runs)
    harness = StreamHarness()
    measurements = [
        harness.measure_analytic(app, harness.max_vectors, runs=args.runs)
        for app in all_apps()
    ]
    print(stream_report(measurements))
    report = Report(title="STREAM on MAX-PolyMem (paper §V, Fig. 10)")
    for m in measurements:
        report.entries.append(
            ReportEntry(
                experiment="§V STREAM",
                quantity=f"{m.app_name} bandwidth [MB/s]",
                measured=round(m.mbps, 1),
                metrics={
                    "peak_mbps": round(m.peak_mbps, 1),
                    "efficiency": round(m.efficiency, 6),
                    "elements": m.elements,
                    "runs": m.runs,
                },
            )
        )
    if args.fig10:
        points = sweep_fig10(harness=harness, runs=args.runs)
        print(f"\n{'copied KB':>10s} {'MB/s':>9s} {'of peak':>8s}")
        for pt in points:
            print(f"{pt.copied_kb:10.1f} {pt.mbps:9.0f} "
                  f"{pt.efficiency * 100:7.2f}%")
            report.entries.append(
                ReportEntry(
                    experiment="Fig. 10",
                    quantity=f"Copy bandwidth @ {pt.copied_kb:.1f} KB [MB/s]",
                    measured=round(pt.mbps, 1),
                    metrics={"efficiency": round(pt.efficiency, 6)},
                )
            )
    _emit_json(args, report)
    return 0


def cmd_stream_run(args) -> int:
    import time

    from .exec import Report, ReportEntry
    from .stream_bench import StreamHarness, all_apps
    from .stream_bench.controller import build_stream_design
    from .stream_bench.harness import StreamMeasurement

    import numpy as np

    from .stream_bench.apps import DEFAULT_SCALAR

    _require_positive("--vectors", args.vectors)
    app = {a.name.lower(): a for a in all_apps()}[args.app]
    design = build_stream_design()
    harness = StreamHarness(design)
    vectors = min(args.vectors, harness.max_vectors)
    t0 = time.perf_counter()
    arrays = harness.load_arrays(vectors)
    cycles = harness.run_app(app, vectors)
    got = harness.offload_array(app.destination, vectors)
    wall = time.perf_counter() - t0
    want = app.expected(arrays["a"], arrays["b"], arrays["c"], DEFAULT_SCALAR)
    if not np.allclose(got, want, rtol=1e-12):
        print(f"{app.name}: offloaded data does not match the NumPy reference")
        return 1
    total = design.dfe.simulator.cycles
    elements = vectors * harness.lanes
    measurement = StreamMeasurement(
        app_name=app.name,
        elements=elements,
        runs=1,
        cycles_per_run=cycles,
        clock_mhz=design.dfe.clock_mhz,
        host_overhead_ns=design.dfe.board.pcie.call_overhead_ns,
        bytes_per_element=app.bytes_per_element,
        lanes=harness.lanes,
    ).record_telemetry()
    print(
        f"{app.name}: {vectors} vectors ({elements * 8 / 1024:.0f} KB) "
        "(verified against NumPy)"
    )
    print(f"  compute cycles: {cycles}, total simulated: {total}")
    print(
        f"  bandwidth: {measurement.mbps:,.0f} MB/s of "
        f"{measurement.peak_mbps:,.0f} peak "
        f"({measurement.efficiency * 100:.2f}%)"
    )
    print(f"  wall time: {wall:.3f} s ({total / wall:,.0f} cycles/s)")
    report = Report(title="STREAM cycle-accurate run")
    report.entries.append(
        ReportEntry(
            experiment="§V STREAM",
            quantity=f"{app.name} compute cycles",
            measured=cycles,
            metrics={
                "vectors": vectors,
                "elements": elements,
                "total_cycles": total,
                "wall_seconds": round(wall, 6),
                "mbps": round(measurement.mbps, 1),
                "peak_mbps": round(measurement.peak_mbps, 1),
                "efficiency": round(measurement.efficiency, 6),
            },
        )
    )
    if args.profile:
        stats = design.dfe.simulator.stats()
        print(
            f"\n  {'kernel':12s} {'active':>9s} {'total':>9s} "
            f"{'batched':>9s} {'util':>7s} {'in':>9s} {'out':>9s} "
            f"{'wall ms':>8s}"
        )
        for s in stats.values():
            print(
                f"  {s.name:12s} {s.active_cycles:9d} {s.total_cycles:9d} "
                f"{s.batched_cycles:9d} {s.utilization:7.1%} "
                f"{s.elements_in:9d} {s.elements_out:9d} "
                f"{s.wall_ns / 1e6:8.2f}"
            )
            report.entries.append(
                ReportEntry(
                    experiment="kernel profile",
                    quantity=s.name,
                    measured=round(s.utilization, 6),
                    metrics=s.to_dict(),
                )
            )
    _emit_json(args, report)
    return 0


def cmd_schedule(args) -> int:
    from .schedule import (
        column_trace,
        customize,
        diagonal_trace,
        random_trace,
        row_trace,
        transpose_trace,
    )

    for flag, value in (("--rows", args.rows), ("--cols", args.cols),
                        ("-p", args.p), ("-q", args.q)):
        _require_positive(flag, value)
    _require_positive("--seed", args.seed, least=0)
    factories = {
        "rows": lambda: row_trace(args.rows, args.cols),
        "columns": lambda: column_trace(args.rows, args.cols),
        "diagonal": lambda: diagonal_trace(min(args.rows, args.cols)),
        "transpose": lambda: transpose_trace(args.rows, args.cols),
        "random": lambda: random_trace(args.rows, args.cols, seed=args.seed),
    }
    trace = factories[args.workload]()
    result = customize(trace, lane_grids=[(args.p, args.q)], solver=args.solver)
    print(f"workload {trace.name!r} ({len(trace)} cells):")
    for s in sorted(result.schedules, key=lambda s: (-s.speedup, -s.efficiency)):
        print(f"  {s.scheme.value:5s}: {s.n_accesses:4d} accesses, "
              f"speedup {s.speedup:6.2f}, efficiency {s.efficiency:5.2f}"
              f"{'' if s.proven_optimal else '  (not proven optimal)'}")
    best = result.best
    print(f"recommended: {best.scheme.value} on a {best.p}x{best.q} grid")
    return 0


def _describe_op(op) -> str:
    from .program import Barrier, Compute, ParallelRead, ParallelWrite

    if isinstance(op, ParallelRead):
        flags = " fuse" if op.fuse else ""
        return (
            f"read   port={op.port} {op.kind_label()} x{op.n} "
            f"stride={op.stride} mem={op.mem!r} tag={op.tag!r}{flags}"
        )
    if isinstance(op, ParallelWrite):
        values = "deferred" if callable(op.values) else (
            "none" if op.values is None else "inline"
        )
        flags = " fuse" if op.fuse else ""
        return (
            f"write  {op.kind_label()} x{op.n} stride={op.stride} "
            f"mem={op.mem!r} values={values}{flags}"
        )
    if isinstance(op, Compute):
        return f"compute {op.label!r}"
    if isinstance(op, Barrier):
        return f"barrier {op.label!r}"
    return repr(op)


def _segment_stats(compiled, mems) -> list[dict]:
    """Dry per-segment cycle/element counts from the compiled program —
    derived from trace shapes alone, no execution.  ``elements`` is None
    for describe-only programs (no live memory to take the lane count
    from)."""
    stats = []
    for seg in compiled.segments:
        elements = 0
        for step in seg.steps:
            mem = mems.get(step.mem)
            if mem is None:
                elements = None
                break
            ports = len(step.reads) + (1 if step.write is not None else 0)
            elements += step.n * mem.lanes * ports
        stats.append(
            {
                "index": seg.index,
                "traces": len(seg.steps),
                "cycles": seg.access_cycles,
                "elements": elements,
            }
        )
    return stats


def cmd_program_dump(args) -> int:
    from .program import compile_program
    from .program.lower import lower_demo

    program, mems = lower_demo(args.kernel)
    compiled = compile_program(program)
    stats = _segment_stats(compiled, mems) if args.stats else None
    fusion = None
    if mems:
        from .program import fusion_plan, warm_plans

        warm_plans(compiled, mems)
        fusion = fusion_plan(compiled, mems).summary()
    if args.json_out is not None:
        import json

        doc = {
            "program": program.name,
            "metadata": dict(program.metadata),
            "memories": list(compiled.mems),
            "access_cycles": compiled.access_cycles,
            "ops": [_describe_op(op) for op in program.ops],
            "segments": [
                {
                    "index": seg.index,
                    "boundary": getattr(seg.boundary, "label", None),
                    "traces": [
                        {
                            "mem": step.mem,
                            "cycles": step.n,
                            "read_ports": list(step.reads),
                            "has_write": step.write is not None,
                        }
                        for step in seg.steps
                    ],
                }
                for seg in compiled.segments
            ],
        }
        if fusion is not None:
            doc["fusion"] = fusion
        if stats is not None:
            doc["stats"] = {
                "segments": stats,
                "total_cycles": sum(s["cycles"] for s in stats),
                "total_elements": None
                if any(s["elements"] is None for s in stats)
                else sum(s["elements"] for s in stats),
            }
        _print_or_write(args.json_out, json.dumps(doc, indent=2, default=str),
                        "JSON dump")
        return 0
    print(f"program {program.name!r}")
    if program.metadata:
        meta = ", ".join(f"{k}={v}" for k, v in program.metadata.items())
        print(f"  metadata: {meta}")
    print(f"  memories: {', '.join(compiled.mems) or '(none)'}"
          f"   access cycles: {compiled.access_cycles}")
    print("  ops:")
    for op in program.ops:
        print(f"    {_describe_op(op)}")
    print(f"  compiled: {len(compiled.segments)} segment(s), "
          f"{compiled.n_traces} trace(s)")
    for seg in compiled.segments:
        tail = ""
        if seg.boundary is not None:
            kind = type(seg.boundary).__name__.lower()
            tail = f" -> {kind} {seg.boundary.label!r}"
        print(f"    segment {seg.index}{tail}")
        for step in seg.steps:
            if step.write is not None:
                shape = "read+write" if step.reads else "write"
            else:
                shape = "read"
            ports = f" ports={list(step.reads)}" if step.reads else ""
            print(f"      trace: {shape} mem={step.mem!r} "
                  f"cycles={step.n}{ports}")
    if fusion is not None:
        cache = fusion["kernel_cache"]
        print(f"  fusion: {fusion['groups']} "
              f"group(s) over {fusion['fused_segments']} segment(s)")
        print(f"    fused steps: {fusion['fused_steps']}, "
              f"fallback steps: {fusion['fallback_steps']}")
        reasons = ", ".join(
            f"{reason} {count}"
            for reason, count in fusion["fallback_reasons"].items()
        )
        print(f"    fallback reasons: {reasons or 'none'}")
        print(f"    kernel cache: {cache['plan_hits']} hit(s), "
              f"{cache['plan_misses']} miss(es), {cache['size']} resident")
    else:
        print("  fusion: unavailable (describe-only program, no live "
              "memories)")
    if stats is not None:
        print("  stats (dry, from trace shapes):")
        print(f"    {'segment':>7s} {'traces':>7s} {'cycles':>8s} "
              f"{'elements':>9s}")
        for s in stats:
            elems = "-" if s["elements"] is None else str(s["elements"])
            print(f"    {s['index']:7d} {s['traces']:7d} {s['cycles']:8d} "
                  f"{elems:>9s}")
        total_elems = sum(s["elements"] or 0 for s in stats)
        elems = "-" if any(s["elements"] is None for s in stats) \
            else str(total_elems)
        print(f"    {'total':>7s} {sum(s['traces'] for s in stats):7d} "
              f"{sum(s['cycles'] for s in stats):8d} {elems:>9s}")
    return 0


def cmd_whatif(args) -> int:
    from .backend import backend_names
    from .dse import whatif_devices
    from .exec import Report, ReportEntry

    _require_positive("--stride-words", args.stride_words)
    _require_positive("--n-words", args.n_words)
    cfg = _config_from_args(args)
    backends = tuple(args.backends) if args.backends else None
    rows = whatif_devices(
        cfg,
        **({"backends": backends} if backends else {}),
        stride_words=args.stride_words,
        n_words=args.n_words,
    )
    print(f"what-if sweep for {cfg.label()} "
          f"(stride {args.stride_words} words, {args.n_words} words):")
    print(f"  registered backends: {', '.join(backend_names())}")
    header = (
        f"  {'backend':10s} {'kind':8s} {'fits':>4s} {'MHz':>7s} "
        f"{'peak W':>8s} {'peak R':>8s} {'strided':>8s} {'layout':>8s} "
        f"{'seq':>8s} {'gain':>6s}"
    )
    print(header)
    for row in rows:
        print(
            f"  {row.backend:10s} {row.kind:8s} "
            f"{'yes' if row.feasible else 'no':>4s} {row.clock_mhz:7.1f} "
            f"{row.peak_write_gbps:8.2f} {row.peak_read_gbps:8.2f} "
            f"{row.strided_gbps:8.2f} {row.layout_gbps:8.2f} "
            f"{row.sequential_gbps:8.2f} {row.layout_speedup:5.1f}x"
        )
    report = Report(title="Device-backend what-if sweep")
    for row in rows:
        report.entries.append(
            ReportEntry(
                experiment="whatif",
                quantity=f"{row.backend} strided bandwidth [GB/s]",
                measured=round(row.strided_gbps, 3),
                metrics=row.to_dict(),
            )
        )
    _emit_json(args, report)
    return 0


def cmd_report(args) -> int:
    from .hw.report import synthesis_report_text

    print(synthesis_report_text(_config_from_args(args)))
    return 0


def cmd_experiments(args) -> int:
    from .experiments import run_scorecard

    card = run_scorecard(cache=_cache_from_args(args))
    print(card.report.render())
    _emit_json(args, card.report)
    return 0 if card.ok else 1


def _config_from_args(args):
    """The subcommand's :class:`~repro.core.config.PolyMemConfig`; a
    ``--config`` path that names no file is a diagnostic."""
    from .core.config import PolyMemConfig

    if args.config:
        _require_file(args.config)
    return PolyMemConfig.from_any(args)


def _require_file(path: str) -> str:
    """*path*, which must name an existing file: a missing or mistyped
    path is a diagnostic, never a traceback or an empty ledger."""
    from pathlib import Path

    from .core.exceptions import ConfigurationError

    if not Path(path).is_file():
        reason = "not a file" if Path(path).exists() else "no such file"
        raise ConfigurationError(f"{path}: {reason}")
    return path


def cmd_telemetry_summary(args) -> int:
    import json

    from .core.exceptions import ConfigurationError
    from .telemetry import load_snapshot, render_summary

    if args.file == "-":
        text = sys.stdin.read()
    else:
        with open(_require_file(args.file)) as fh:
            text = fh.read()
    try:
        snapshot = load_snapshot(json.loads(text))
    except (ValueError, json.JSONDecodeError) as exc:
        raise ConfigurationError(
            f"{args.file}: not a telemetry snapshot ({exc})"
        ) from exc
    print(render_summary(snapshot), end="")
    return 0


def cmd_telemetry_ledger(args) -> int:
    import json
    import time as _time

    from .telemetry.ledger import Ledger

    ledger = Ledger(_require_file(args.file))
    entries = ledger.entries(args.bench)
    if args.last:
        entries = entries[-args.last:]
    if args.json_out is not None:
        text = json.dumps([e.to_dict() for e in entries], indent=2, sort_keys=True)
        _print_or_write(args.json_out, text, "JSON")
        return 0
    if not entries:
        print(f"{args.file}: no ledger entries"
              + (f" for bench {args.bench!r}" if args.bench else ""))
        return 0
    width = max(len(e.bench) for e in entries)
    for e in entries:
        git = (e.provenance.get("git") or {})
        sha = (git.get("sha") or "unknown")[:12]
        dirty = "+" if git.get("dirty") else ""
        when = _time.strftime("%Y-%m-%d %H:%M:%S", _time.localtime(e.ts))
        gates = (
            f"{sum(1 for g in e.gates if g.get('ok'))}/{len(e.gates)} gates ok"
            if e.gates
            else "no gates"
        )
        status = "ok  " if e.ok else "FAIL"
        print(
            f"{when}  {status}  {e.bench:<{width}}  {sha}{dirty}  "
            f"{e.provenance.get('backend', '-'):8s}  {gates}"
        )
    print(f"\n{len(entries)} entries in {args.file}")
    return 0


def cmd_telemetry_regress(args) -> int:
    import json

    from .telemetry.regress import regress, render_regress

    report = regress(
        _require_file(args.file),
        bench=args.bench,
        baseline_window=args.baseline_window,
        noise=args.noise,
    )
    if args.json_out is not None:
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        _print_or_write(args.json_out, text, "JSON")
    else:
        print(render_regress(report))
    if not report.ok:
        return 1
    if args.strict and report.warned:
        return 1
    return 0


def cmd_productivity(args) -> int:
    from .analysis import productivity_table
    from .analysis.productivity import render_table

    print(render_table(productivity_table()))
    return 0


def _info_args(p) -> None:
    p.add_argument("-p", type=int, default=2)
    p.add_argument("-q", type=int, default=4)
    p.set_defaults(fn=cmd_info)


def _validate_args(p) -> None:
    _add_config_args(p)
    p.add_argument("--style", default="fused", choices=["fused", "modular"])
    p.add_argument("--max-rows", type=int, default=32)
    p.set_defaults(fn=cmd_validate)


def _dse_args(p) -> None:
    from .backend import backend_names

    p.add_argument(
        "--source", default="both", choices=["model", "paper", "both"]
    )
    p.add_argument("--figures", action="store_true",
                   help="also print the Fig. 4-8 series")
    p.add_argument("--save", help="persist the sweep to a JSON file")
    p.add_argument("--load", help="render from a saved sweep instead")
    p.add_argument(
        "--prune",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="drop Pareto-dominated points before evaluation (the "
        "frontier is unchanged but the point list is a subset)",
    )
    p.add_argument(
        "--backend",
        default=None,
        choices=backend_names(),
        help="device backend to retarget the sweep at (default: the "
        "seed Vectis path; REPRO_BACKEND only affects backend-"
        "parameterized helpers, not this sweep)",
    )
    _add_exec_args(p)
    p.set_defaults(fn=cmd_dse)


def _whatif_args(p) -> None:
    from .backend import backend_names

    _add_config_args(p)
    p.add_argument(
        "--backends",
        nargs="+",
        default=None,
        choices=backend_names(),
        metavar="NAME",
        help="backends to compare (default: all built-ins: "
        f"{', '.join(backend_names())})",
    )
    p.add_argument(
        "--stride-words",
        type=int,
        default=64,
        help="stride of the burst-hostile reference stream (words)",
    )
    p.add_argument(
        "--n-words",
        type=int,
        default=1 << 14,
        help="length of the reference streams (words)",
    )
    _add_json_arg(p)
    _add_telemetry_args(p)
    p.set_defaults(fn=cmd_whatif)


def _stream_args(p) -> None:
    p.add_argument("--runs", type=int, default=1000)
    p.add_argument("--fig10", action="store_true")
    _add_json_arg(p)
    _add_telemetry_args(p)
    p.set_defaults(fn=cmd_stream)
    stream_sub = p.add_subparsers(dest="stream_command")
    p_srun = stream_sub.add_parser(
        "run", help="one cycle-accurate Load/compute/Offload pass"
    )
    p_srun.add_argument(
        "--app", default="copy", choices=["copy", "scale", "sum", "triad"]
    )
    p_srun.add_argument("--vectors", type=int, default=1024)
    p_srun.add_argument(
        "--profile",
        action="store_true",
        help="print the per-kernel activity table",
    )
    _add_json_arg(p_srun)
    _add_telemetry_args(p_srun)
    p_srun.set_defaults(fn=cmd_stream_run)


def _schedule_args(p) -> None:
    p.add_argument(
        "workload",
        choices=["rows", "columns", "diagonal", "transpose", "random"],
    )
    p.add_argument("--rows", type=int, default=4)
    p.add_argument("--cols", type=int, default=32)
    p.add_argument("-p", type=int, default=2)
    p.add_argument("-q", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--solver", default="ilp", choices=["ilp", "greedy"])
    p.set_defaults(fn=cmd_schedule)


def _program_args(p) -> None:
    from .program.lower import DEMO_NAMES

    prog_sub = p.add_subparsers(dest="program_command", required=True)
    p_pdump = prog_sub.add_parser(
        "dump",
        help="lower one demo workload and print its ops and compiled "
        "segments",
    )
    p_pdump.add_argument("kernel", choices=list(DEMO_NAMES))
    _add_json_arg(p_pdump, what="the dump as JSON")
    p_pdump.add_argument(
        "--stats",
        action="store_true",
        help="print per-segment cycle/element counts derived from the "
        "compiled trace shapes (no execution)",
    )
    _add_telemetry_args(p_pdump)
    p_pdump.set_defaults(fn=cmd_program_dump)


def _telemetry_args(p) -> None:
    tel_sub = p.add_subparsers(dest="telemetry_command", required=True)
    p_tsum = tel_sub.add_parser(
        "summary",
        help="pretty-print a telemetry snapshot (a report JSON with a "
        "telemetry block, or a raw snapshot)",
    )
    p_tsum.add_argument("file", help="JSON file ('-' reads stdin)")
    p_tsum.set_defaults(fn=cmd_telemetry_summary)

    p_tled = tel_sub.add_parser(
        "ledger", help="list recorded runs from a JSONL run ledger"
    )
    p_tled.add_argument("file", help="ledger file (JSONL)")
    p_tled.add_argument("--bench", default=None, help="only this bench")
    p_tled.add_argument(
        "--last", type=int, default=None, metavar="N",
        help="only the N most recent entries",
    )
    _add_json_arg(p_tled, what="the selected entries as JSON")
    p_tled.set_defaults(fn=cmd_telemetry_ledger)

    p_treg = tel_sub.add_parser(
        "regress",
        help="evaluate the newest ledger entries against the declared "
        "gates and a median-of-last-N baseline window",
    )
    p_treg.add_argument("file", help="ledger file (JSONL)")
    p_treg.add_argument("--bench", default=None, help="only this bench")
    p_treg.add_argument(
        "--baseline-window", type=int, default=5, metavar="N",
        help="baseline is the median of the previous N runs "
        "(default: %(default)s)",
    )
    p_treg.add_argument(
        "--noise", type=float, default=0.10, metavar="FRAC",
        help="warn when a passing gate is worse than baseline by more "
        "than this fraction (default: %(default)s)",
    )
    p_treg.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on warnings too, not only hard gate failures",
    )
    _add_json_arg(p_treg, what="the verdicts as JSON")
    p_treg.set_defaults(fn=cmd_telemetry_regress)


def _productivity_args(p) -> None:
    p.set_defaults(fn=cmd_productivity)


def _experiments_args(p) -> None:
    _add_exec_args(p)
    p.set_defaults(fn=cmd_experiments)


def _report_args(p) -> None:
    _add_config_args(p)
    p.set_defaults(fn=cmd_report)


#: every subcommand, in --help order: its help line and the function that
#: defines its arguments (and sets its handler as ``fn``)
_SUBCOMMANDS = {
    "info": ("package and scheme overview", _info_args),
    "validate": ("run the §IV-A validation cycle", _validate_args),
    "dse": ("design-space exploration (§IV)", _dse_args),
    "whatif": (
        "sweep one configuration across device backends "
        "(BRAM / DRAM / HBM / multi-DFE)",
        _whatif_args,
    ),
    "stream": ("STREAM benchmark (§V)", _stream_args),
    "schedule": ("access-schedule optimizer (§III-A)", _schedule_args),
    "program": (
        "access-program IR tools (lower/compile/inspect)", _program_args
    ),
    "telemetry": (
        "inspect recorded telemetry: snapshots, the run ledger, "
        "regression gates",
        _telemetry_args,
    ),
    "productivity": ("Table II analysis (§III-C)", _productivity_args),
    "experiments": ("full paper-vs-reproduction scorecard", _experiments_args),
    "report": ("vendor-style synthesis estimate for one config", _report_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``polymem`` parser.

    Every subcommand is listed, but given *command* only that one's
    arguments are defined, so a run imports nothing another subcommand
    needs for its choices (the backend registry, the demo programs).
    Parsing an argv that starts with *command* is unaffected.
    """
    parser = argparse.ArgumentParser(
        prog="polymem",
        description="PolyMem: polymorphic parallel memories "
        "(MAX-PolyMem reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, define_args) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_)
        if command in (None, name):
            define_args(p)
    return parser


def _print_span_profiles(tel) -> None:
    """Span cProfile attributions, for runs without a --trace-out file."""
    for ev in tel.tracer.to_chrome_trace()["traceEvents"]:
        rows = (ev.get("args") or {}).get("profile")
        if not rows:
            continue
        print(f"\nprofile of span {ev['name']!r} "
              f"({ev.get('dur', 0) / 1e3:.3f} ms):", file=sys.stderr)
        for row in rows:
            print(
                f"  {row['cumtime']:9.4f}s cum  {row['tottime']:9.4f}s self  "
                f"x{row['ncalls']:<7d} {row['func']}",
                file=sys.stderr,
            )


def main(argv=None) -> int:
    """CLI entry point."""
    from .core.exceptions import ConfigurationError

    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return _run(args)
    except ConfigurationError as exc:
        print(f"polymem {args.command}: error: {exc}", file=sys.stderr)
        return 2


def _run(args) -> int:
    """Run the parsed command, inside a telemetry session when asked."""
    want_metrics = getattr(args, "metrics", False)
    trace_out = getattr(args, "trace_out", None)
    profile_spans = getattr(args, "profile_spans", None)
    if not want_metrics and trace_out is None and profile_spans is None:
        return args.fn(args)
    # --metrics / --trace-out / --profile-spans: run inside a telemetry
    # session (span profiling needs the tracer even without a trace file)
    from .telemetry import Telemetry, render_summary, session

    tel = Telemetry(
        tracing=trace_out is not None or profile_spans is not None,
        label=args.command,
    )
    if profile_spans is not None:
        tel.tracer.profile_spans(profile_spans)
    with session(tel):
        rc = args.fn(args)
    if trace_out is not None:
        tel.tracer.close_open_spans()
        tel.tracer.save(trace_out)
        print(f"trace written to {trace_out} "
              f"(load it at https://ui.perfetto.dev)", file=sys.stderr)
    elif profile_spans is not None:
        _print_span_profiles(tel)
    if want_metrics:
        print(render_summary(tel.snapshot()), end="")
    return rc


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
