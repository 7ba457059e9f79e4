"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _SUBCOMMANDS, build_parser, main
from repro.exec import REPORT_FORMAT, Report


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_registered(self):
        parser = build_parser()
        for cmd in ("info", "validate", "dse", "stream", "schedule", "productivity"):
            args = parser.parse_args(
                [cmd, "rows"] if cmd == "schedule" else [cmd]
            )
            assert args.command == cmd

    def test_per_command_parser_matches_full_parser(self, capsys):
        """Defining one subcommand's arguments changes no help output."""
        for name in _SUBCOMMANDS:
            assert build_parser(name).format_help() == build_parser().format_help()
            helps = []
            for parser in (build_parser(), build_parser(name)):
                with pytest.raises(SystemExit):
                    parser.parse_args([name, "--help"])
                helps.append(capsys.readouterr().out)
            assert helps[0] == helps[1]


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "ReRo" in out and "rectangle" in out

    def test_validate_passes(self, capsys):
        rc = main(
            ["validate", "--capacity-kb", "4", "--scheme", "ReCo", "--max-rows", "8"]
        )
        assert rc == 0
        assert "PASSED" in capsys.readouterr().out

    def test_validate_modular(self, capsys):
        rc = main(
            ["validate", "--capacity-kb", "4", "--style", "modular",
             "--max-rows", "8"]
        )
        assert rc == 0

    def test_validate_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "polymem.cfg"
        cfg.write_text("capacity_bytes = 4096\np = 2\nq = 4\nscheme = ReTr\n")
        rc = main(["validate", "--config", str(cfg), "--max-rows", "8"])
        assert rc == 0
        assert "ReTr" in capsys.readouterr().out

    def test_dse(self, capsys):
        assert main(["dse"]) == 0
        out = capsys.readouterr().out
        assert "MAXIMUM CLOCK FREQUENCIES" in out
        assert "peak read" in out

    def test_dse_save_creates_missing_directories(self, tmp_path, capsys):
        from repro.util import load_dse_result

        path = tmp_path / "missing" / "dir" / "s.json"
        assert main(["dse", "--no-cache", "--save", str(path)]) == 0
        assert f"sweep saved to {path}" in capsys.readouterr().out
        assert load_dse_result(path).points

    def test_stream(self, capsys):
        assert main(["stream"]) == 0
        out = capsys.readouterr().out
        assert "Copy" in out and "Triad" in out

    def test_stream_fig10(self, capsys):
        assert main(["stream", "--fig10", "--runs", "10"]) == 0
        assert "copied KB" in capsys.readouterr().out

    def test_schedule(self, capsys):
        assert main(["schedule", "columns", "--rows", "1", "--cols", "32"]) == 0
        out = capsys.readouterr().out
        assert "recommended:" in out

    def test_schedule_greedy(self, capsys):
        assert main(["schedule", "random", "--rows", "8", "--cols", "8",
                     "--solver", "greedy"]) == 0

    def test_productivity(self, capsys):
        assert main(["productivity"]) == 0
        assert "Shuffle" in capsys.readouterr().out

    def test_report(self, capsys):
        assert main(["report", "--capacity-kb", "512", "--scheme", "ReO"]) == 0
        out = capsys.readouterr().out
        assert "SYNTHESIS ESTIMATE" in out and "FEASIBLE" in out

    def test_report_infeasible(self, capsys):
        assert main(
            ["report", "--capacity-kb", "4096", "--ports", "2"]
        ) == 0
        assert "INFEASIBLE" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["validate", "-p", "3", "-q", "4"], "not a whole number of 3x4"),
            (["whatif", "-p", "3"], "not a whole number of 3x4"),
            (["validate", "-p", "0"], "lane grid must be positive"),
            (["report", "--ports", "0"], "need >= 1 read port"),
            (["info", "-p", "0"], "lane grid must be positive"),
            (["info", "-q", "-2"], "lane grid must be positive"),
            (["stream", "run", "--vectors", "0"], "--vectors must be >= 1"),
            (["stream", "run", "--vectors", "-5"], "--vectors must be >= 1"),
            (["stream", "--runs", "-1"], "--runs must be >= 1"),
            (["stream", "--runs", "0"], "--runs must be >= 1"),
            (["whatif", "--stride-words", "-3"], "--stride-words must be >= 1"),
            (["whatif", "--stride-words", "0"], "--stride-words must be >= 1"),
            (["whatif", "--n-words", "0"], "--n-words must be >= 1"),
            (["whatif", "--n-words", "-5"], "--n-words must be >= 1"),
            (["validate", "--max-rows", "3"], "not a positive multiple of p=2"),
            (["validate", "--max-rows", "0"], "not a positive multiple of p=2"),
            (["validate", "--max-rows", "-4"], "not a positive multiple of p=2"),
            (["validate", "--config", "missing.cfg"], "missing.cfg: no such file"),
            (["report", "--config", "."], ".: not a file"),
            (["whatif", "--config", "missing.cfg"], "missing.cfg: no such file"),
            (["dse", "--load", "missing.json"], "missing.json: no such file"),
            (["dse", "--load", "."], ".: not a file"),
            (["schedule", "rows", "--rows", "0"], "--rows must be >= 1"),
            (["schedule", "columns", "--cols", "-1"], "--cols must be >= 1"),
            (["schedule", "rows", "-p", "0"], "-p must be >= 1"),
            (["schedule", "rows", "-q", "0"], "-q must be >= 1"),
            (["schedule", "random", "--seed", "-1"], "--seed must be >= 0"),
        ],
        ids=[
            "validate-p3-q4", "whatif-p3", "validate-p0", "report-ports0",
            "info-p0", "info-q-2", "stream-run-vectors0",
            "stream-run-vectors-5", "stream-runs-1", "stream-runs0",
            "whatif-stride-3", "whatif-stride0", "whatif-n-words0",
            "whatif-n-words-5", "validate-max-rows3", "validate-max-rows0",
            "validate-max-rows-4", "validate-config-missing",
            "report-config-dir", "whatif-config-missing", "dse-load-missing",
            "dse-load-dir", "schedule-rows0", "schedule-cols-1",
            "schedule-p0", "schedule-q0", "schedule-seed-1",
        ],
    )
    def test_bad_configuration_is_a_diagnostic(
        self, argv, message, capsys, tmp_path, monkeypatch
    ):
        """An invalid configuration exits 2 with one stderr line, not a
        traceback."""
        monkeypatch.chdir(tmp_path)  # the "missing" paths really are
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no success-looking header first
        assert captured.err.startswith(f"polymem {argv[0]}: error: ")
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert len(captured.err.splitlines()) == 1


class TestExecFlags:
    """The shared repro.exec flags on dse/experiments."""

    def test_registered_on_grid_subcommands(self):
        parser = build_parser()
        for cmd in ("dse", "experiments"):
            args = parser.parse_args(
                [cmd, "--no-cache", "--cache-dir", "/tmp/c"]
            )
            assert args.no_cache is True
            assert args.cache_dir == "/tmp/c"
            assert args.json_out is None
            args = parser.parse_args([cmd, "--json"])
            assert args.json_out == "-"

    def test_dse_cache(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        argv = ["dse", "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "90 points (0 cached, 90 computed)" in out
        # warm re-run: every point comes from the cache
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "90 points (90 cached, 0 computed)" in out
        assert "MAXIMUM CLOCK FREQUENCIES" in out

    def test_dse_no_cache(self, tmp_path, capsys):
        argv = ["dse", "--no-cache", "--cache-dir", str(tmp_path / "c")]
        assert main(argv) == 0
        assert main(argv) == 0
        assert "(0 cached, 90 computed)" in capsys.readouterr().out
        assert not (tmp_path / "c").exists()

    def test_dse_json_stdout(self, capsys):
        assert main(["dse", "--no-cache", "--json"]) == 0
        out = capsys.readouterr().out
        report = Report.from_json(out[out.index('{\n  "format"'):])
        assert report.entries
        assert all(e.experiment == "Table IV" for e in report.entries)
        assert report.n_checked == len(report.entries)

    def test_dse_json_file(self, tmp_path, capsys):
        path = tmp_path / "dse.json"
        assert main(["dse", "--no-cache", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["format"] == REPORT_FORMAT
        assert payload["meta"]["sweep_points"] == 90
        assert len(payload["entries"]) == 90

    def test_stream_json(self, tmp_path, capsys):
        path = tmp_path / "stream.json"
        rc = main(
            ["stream", "--fig10", "--runs", "10", "--json", str(path)]
        )
        assert rc == 0
        report = Report.from_json(path.read_text())
        quantities = [e.quantity for e in report.entries]
        assert any(q.startswith("Copy bandwidth @") for q in quantities)
        assert any("Triad" in q for q in quantities)

    def test_experiments_warm_cache_skips_sweep(self, tmp_path, capsys):
        path = tmp_path / "scorecard.json"
        argv = ["experiments",
                "--cache-dir", str(tmp_path / "cache"), "--json", str(path)]
        assert main(argv) == 0
        cold = Report.from_json(path.read_text())
        assert cold.meta["sweep_cached"] == 0
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "SCORECARD" in out and "checks passed" in out
        warm = Report.from_json(path.read_text())
        assert warm.meta["sweep_points"] == cold.meta["sweep_points"]
        # a warm re-run skips >= 90% of the sweep points
        assert warm.meta["sweep_cached"] >= 0.9 * warm.meta["sweep_points"]
        assert [e.ok for e in warm.entries] == [e.ok for e in cold.entries]

    def test_stream_run_batched_default_with_profile(self, capsys):
        rc = main(["stream", "run", "--vectors", "96", "--profile"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "verified against NumPy" in out
        assert "compute cycles: 112" in out  # 96 + 14 latency + 2 slack
        # the per-kernel activity table
        for name in ("controller", "mux", "demux", "polymem"):
            assert name in out
        assert "util" in out and "batched" in out

    def test_stream_run_json_report(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        rc = main(
            ["stream", "run", "--vectors", "64", "--profile",
             "--json", str(path)]
        )
        assert rc == 0
        report = Report.from_json(path.read_text())
        compute = [e for e in report.entries if e.experiment == "§V STREAM"]
        assert compute and "engine" not in compute[0].metrics
        profiles = [
            e for e in report.entries if e.experiment == "kernel profile"
        ]
        assert {e.quantity for e in profiles} == {
            "controller", "mux", "demux", "polymem"
        }
        assert all("elements_in" in e.metrics for e in profiles)

    def test_validate_json_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "polymem.json"
        cfg.write_text(json.dumps(
            {"capacity_kb": 4, "p": 2, "q": 4, "scheme": "ReCo"}
        ))
        rc = main(["validate", "--config", str(cfg), "--max-rows", "8"])
        assert rc == 0
        assert "ReCo" in capsys.readouterr().out

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "info"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "repro" in proc.stdout


class TestTelemetryFlags:
    def test_stream_run_metrics_and_trace(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        report_path = tmp_path / "run.json"
        rc = main(
            ["stream", "run", "--vectors", "96",
             "--metrics", "--trace-out", str(trace),
             "--json", str(report_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        # the metrics summary, with the acceptance-relevant derived lines
        assert "telemetry summary" in out
        assert "scalar-fallback cycles" in out
        assert "stall cycles" in out
        assert "plan-cache hit rate" in out
        assert "achieved vs peak bandwidth" in out
        # a Perfetto-loadable trace with nested host->pcie->kernel->segment
        doc = json.loads(trace.read_text())
        assert doc["displayTimeUnit"] == "ns"
        names = {e["name"] for e in doc["traceEvents"]}
        for expected in ("host.write_stream", "host.run_kernel",
                        "pcie.transfer", "kernel.run", "segment.batched"):
            assert expected in names, expected
        assert not any(
            e.get("args", {}).get("aborted") for e in doc["traceEvents"]
        )
        # the snapshot also lands in the JSON report's meta
        report = Report.from_json(report_path.read_text())
        snap = report.meta["telemetry"]
        assert snap["format"] == "repro.telemetry/1"
        counters = snap["metrics"]["counters"]
        assert counters["sim.stall_cycles"] >= 0
        assert counters["sim.cycles.scalar"] >= 0
        assert "polymem.plan_cache.hits" in counters
        assert snap["metrics"]["gauges"]["stream.peak_mbps"]["value"] > 0

    def test_trace_out_creates_missing_directories(self, tmp_path, capsys):
        trace = tmp_path / "missing" / "dir" / "t.json"
        rc = main(["stream", "run", "--vectors", "16", "--trace-out", str(trace)])
        assert rc == 0
        names = {e["name"] for e in json.loads(trace.read_text())["traceEvents"]}
        assert "kernel.run" in names

    def test_telemetry_off_leaves_no_session(self, capsys):
        from repro.telemetry import active

        assert main(["stream", "run", "--vectors", "64"]) == 0
        assert active() is None
        assert "telemetry summary" not in capsys.readouterr().out

    def test_telemetry_summary_command(self, tmp_path, capsys):
        report_path = tmp_path / "run.json"
        assert main(
            ["stream", "run", "--vectors", "64", "--metrics",
             "--json", str(report_path)]
        ) == 0
        capsys.readouterr()
        assert main(["telemetry", "summary", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "telemetry summary" in out
        assert "derived" in out

    def test_telemetry_summary_rejects_plain_json(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{}")
        assert main(["telemetry", "summary", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("polymem telemetry: error: ")
        assert "not a telemetry snapshot" in err

    def test_telemetry_summary_missing_file(self, tmp_path, capsys):
        path = tmp_path / "missing.json"
        assert main(["telemetry", "summary", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"polymem telemetry: error: {path}: no such file\n"

    def test_dse_accepts_telemetry_flags(self, capsys):
        assert main(["dse", "--metrics"]) == 0
        assert "telemetry summary" in capsys.readouterr().out


class TestProgramDumpStats:
    def test_text_stats(self, capsys):
        assert main(["program", "dump", "matmul", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "stats (dry, from trace shapes)" in out
        assert "elements" in out

    def test_json_stats_totals(self, capsys):
        assert main(["program", "dump", "matmul", "--stats", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        stats = doc["stats"]
        assert stats["total_cycles"] == sum(
            s["cycles"] for s in stats["segments"]
        )
        assert stats["total_cycles"] == doc["access_cycles"]
        assert stats["total_elements"] > 0
        for seg in stats["segments"]:
            assert seg["elements"] % seg["cycles"] == 0  # lanes x ports

    def test_describe_only_program_has_no_element_counts(self, capsys):
        assert main(
            ["program", "dump", "stream_copy", "--stats", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["stats"]["total_elements"] is None
        assert all(
            s["elements"] is None for s in doc["stats"]["segments"]
        )

    def test_stats_off_by_default(self, capsys):
        assert main(["program", "dump", "matmul", "--json"]) == 0
        assert "stats" not in json.loads(capsys.readouterr().out)


class TestProgramDumpFusion:
    def test_text_shows_fused_and_fallback_steps(self, capsys):
        assert main(["program", "dump", "matmul"]) == 0
        out = capsys.readouterr().out
        assert "fusion: 1 group(s)" in out
        assert "fused steps: 1, fallback steps: 0" in out
        assert "fallback reasons: none" in out

    def test_json_shows_fused_and_fallback_steps(self, capsys):
        assert main(["program", "dump", "matmul", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "backend" not in doc
        fusion = doc["fusion"]
        assert fusion["fused_steps"] == 1
        assert fusion["fallback_steps"] == 0
        assert fusion["fallback_reasons"] == {}

    def test_describe_only_program_is_unavailable(self, capsys):
        assert main(["program", "dump", "stream_copy"]) == 0
        assert "fusion: unavailable" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["program", "dump", "matmul", "--backend", "fused"],
            ["dse", "--no-batch"],
            ["stream", "run", "--engine", "scalar"],
        ],
    )
    def test_removed_path_switches_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestTelemetryObservatory:
    """The ledger/regress subcommands over a run ledger."""

    @pytest.fixture
    def ledger_path(self, tmp_path):
        from repro.telemetry.context import SNAPSHOT_FORMAT
        from repro.telemetry.ledger import Ledger, LedgerEntry
        from repro.telemetry.regress import evaluate_gate

        def snap(cycles):
            return {
                "format": SNAPSHOT_FORMAT,
                "metrics": {
                    "counters": {"sim.cycles.batched": cycles},
                    "gauges": {},
                    "histograms": {},
                },
            }

        path = tmp_path / "ledger.jsonl"
        ledger = Ledger(path)
        for i, speedup in enumerate((3.0, 3.1, 1.4)):
            ledger.append(
                LedgerEntry(
                    bench="bench_sim",
                    ts=float(i),
                    params={"workload": "stream.copy", "scheme": "batched"},
                    provenance={
                        "backend": "vectis",
                        "git": {"sha": "a" * 40, "dirty": False},
                    },
                    gates=[evaluate_gate("sim.batched_vs_scalar", speedup)],
                    timings={"wall_s": 1.0 + i},
                    telemetry=snap(100 * (i + 1)),
                )
            )
        return path

    def test_ledger_listing(self, ledger_path, capsys):
        assert main(["telemetry", "ledger", str(ledger_path)]) == 0
        out = capsys.readouterr().out
        assert "bench_sim" in out and "aaaaaaaaaaaa" in out
        assert "FAIL" in out  # the 1.4x run misses its gate
        assert "3 entries" in out

    def test_ledger_last_and_json(self, ledger_path, capsys):
        assert main(
            ["telemetry", "ledger", str(ledger_path), "--last", "1", "--json"]
        ) == 0
        docs = json.loads(capsys.readouterr().out)
        assert len(docs) == 1 and docs[0]["ts"] == 2.0

    @pytest.mark.parametrize("command", ["ledger", "regress"])
    @pytest.mark.parametrize(
        "name, reason",
        [("missing.jsonl", "no such file"), (".", "not a file")],
        ids=["missing", "directory"],
    )
    def test_rejects_missing_or_non_file(
        self, tmp_path, capsys, command, name, reason
    ):
        # a mistyped $REPRO_LEDGER must fail the gate job, not read as an
        # empty history
        path = tmp_path / name
        assert main(["telemetry", command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"polymem telemetry: error: {path}: {reason}\n"

    def test_regress_fails_on_failed_gate(self, ledger_path, capsys):
        assert main(
            ["telemetry", "regress", str(ledger_path), "--baseline-window", "5"]
        ) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out and "bench_sim:sim.batched_vs_scalar" in out

    def test_regress_json(self, ledger_path, capsys):
        assert main(["telemetry", "regress", str(ledger_path), "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdicts"][0]["status"] == "fail"
        assert doc["verdicts"][0]["baseline"] == 3.05

    def test_regress_strict_turns_warns_into_failure(self, tmp_path, capsys):
        from repro.telemetry.ledger import Ledger, LedgerEntry
        from repro.telemetry.regress import evaluate_gate

        path = tmp_path / "warn.jsonl"
        ledger = Ledger(path)
        for speedup in (3.0, 3.0, 3.0, 2.2):  # passes, but 27% worse
            ledger.append(
                LedgerEntry(
                    bench="b",
                    gates=[evaluate_gate("sim.batched_vs_scalar", speedup)],
                )
            )
        capsys.readouterr()
        assert main(["telemetry", "regress", str(path)]) == 0
        assert "[WARN]" in capsys.readouterr().out
        assert main(["telemetry", "regress", str(path), "--strict"]) == 1

    def test_profile_spans_flag_prints_attribution(self, capsys):
        assert main(
            ["stream", "run", "--vectors", "64", "--profile-spans", "*"]
        ) == 0
        err = capsys.readouterr().err
        assert "profile of span" in err
        assert "cum" in err
