"""Tests for the declarative gate table and the regression policy engine."""

import pytest

from repro.telemetry.ledger import Ledger, LedgerEntry
from repro.telemetry.regress import (
    GATE_TABLE,
    check_gates,
    evaluate_gate,
    regress,
    render_regress,
)


class TestEvaluateGate:
    def test_known_gate_uses_table(self):
        g = evaluate_gate("sim.batched_vs_scalar", 3.0)
        assert g == {
            "name": "sim.batched_vs_scalar",
            "value": 3.0,
            "op": ">=",
            "threshold": 2.0,
            "ok": True,
            "detail": GATE_TABLE["sim.batched_vs_scalar"].description,
        }

    def test_failing_gate(self):
        assert evaluate_gate("sim.batched_vs_scalar", 1.2)["ok"] is False

    def test_lower_is_better_gate(self):
        assert evaluate_gate("telemetry.guard_share", 0.01)["ok"] is True
        assert evaluate_gate("telemetry.guard_share", 0.2)["ok"] is False

    def test_explicit_overrides_beat_the_table(self):
        # a conditional branch records its own always-true bound
        g = evaluate_gate(
            "sim.batched_vs_scalar", 0.9, op=">=", threshold=0.0, detail="clamped"
        )
        assert g["ok"] is True and g["threshold"] == 0.0
        assert g["detail"] == "clamped"

    def test_unknown_name_needs_op_and_threshold(self):
        with pytest.raises(KeyError):
            evaluate_gate("no.such.gate", 1.0)
        with pytest.raises(KeyError):
            evaluate_gate("no.such.gate", 1.0, op=">=")
        g = evaluate_gate("no.such.gate", 1.0, op="<=", threshold=2.0)
        assert g["ok"] is True and g["detail"] == ""

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            evaluate_gate("custom", 1.0, op="!=", threshold=2.0)

    def test_every_table_row_evaluates(self):
        for name, spec in GATE_TABLE.items():
            g = evaluate_gate(name, spec.threshold)
            assert g["op"] == spec.op and g["threshold"] == spec.threshold


class TestCheckGates:
    def test_messages_only_for_failures(self):
        gates = [
            evaluate_gate("sim.batched_vs_scalar", 5.0),
            evaluate_gate("telemetry.guard_share", 0.5),
        ]
        (msg,) = check_gates(gates)
        assert "telemetry.guard_share" in msg and "0.5 <= 0.05" in msg

    def test_empty_when_all_hold(self):
        assert check_gates([evaluate_gate("backend.layout_gain", 9.0)]) == []


def make_ledger(tmp_path, runs):
    """A ledger of (bench, gate_name, value) runs, oldest first."""
    ledger = Ledger(tmp_path / "ledger.jsonl")
    for i, (bench, name, value, *rest) in enumerate(runs):
        overrides = rest[0] if rest else {}
        ledger.append(
            LedgerEntry(
                bench=bench,
                ts=float(i),
                gates=[evaluate_gate(name, value, **overrides)],
            )
        )
    return ledger


class TestRegress:
    def test_hard_failure_reproduced_from_ledger(self, tmp_path):
        ledger = make_ledger(
            tmp_path, [("bench_sim", "sim.batched_vs_scalar", 1.5)]
        )
        report = regress(ledger)
        (v,) = report.verdicts
        assert v.status == "fail" and not report.ok
        assert (v.value, v.op, v.threshold) == (1.5, ">=", 2.0)
        assert v.baseline is None and v.n_baseline == 0

    def test_recorded_override_replays_the_same_branch(self, tmp_path):
        # 0.9x "speedup" recorded with the clamped always-true threshold
        # must re-evaluate as a pass, exactly like the in-process gate
        ledger = make_ledger(
            tmp_path,
            [
                (
                    "bench_sim",
                    "sim.batched_vs_scalar",
                    0.9,
                    {"op": ">=", "threshold": 0.0},
                )
            ],
        )
        assert regress(ledger).verdicts[0].status == "pass"

    def test_warn_when_passing_but_worse_than_baseline(self, tmp_path):
        runs = [("b", "sim.batched_vs_scalar", 3.0)] * 3
        runs.append(("b", "sim.batched_vs_scalar", 2.2))  # passes, -27%
        report = regress(make_ledger(tmp_path, runs), noise=0.10)
        (v,) = report.verdicts
        assert v.status == "warn" and report.ok
        assert v.baseline == 3.0 and v.n_baseline == 3
        assert "worse than baseline" in v.detail

    def test_pass_within_noise_of_baseline(self, tmp_path):
        runs = [("b", "sim.batched_vs_scalar", 3.0)] * 3
        runs.append(("b", "sim.batched_vs_scalar", 2.9))
        (v,) = regress(make_ledger(tmp_path, runs), noise=0.10).verdicts
        assert v.status == "pass"

    def test_warn_direction_flips_for_lower_is_better(self, tmp_path):
        runs = [("b", "telemetry.guard_share", 0.010)] * 3
        runs.append(("b", "telemetry.guard_share", 0.020))  # passes, 2x worse
        (v,) = regress(make_ledger(tmp_path, runs), noise=0.10).verdicts
        assert v.status == "warn"

    def test_baseline_window_bounds_history(self, tmp_path):
        # 5 ancient slow runs, then 5 recent fast ones, then a slow latest:
        # with window=5 the baseline is the fast median, so it warns
        runs = [("b", "sim.batched_vs_scalar", 2.1)] * 5
        runs += [("b", "sim.batched_vs_scalar", 4.0)] * 5
        runs.append(("b", "sim.batched_vs_scalar", 2.1))
        (v,) = regress(
            make_ledger(tmp_path, runs), baseline_window=5, noise=0.10
        ).verdicts
        assert v.baseline == 4.0 and v.status == "warn"
        # a window spanning the whole history drags the median down: pass
        (v,) = regress(
            make_ledger(tmp_path, runs), baseline_window=10, noise=0.10
        ).verdicts
        assert v.baseline < 4.0

    def test_only_newest_entry_is_judged_per_bench(self, tmp_path):
        runs = [
            ("b", "sim.batched_vs_scalar", 1.0),  # old failure
            ("b", "sim.batched_vs_scalar", 3.0),  # fixed since
        ]
        report = regress(make_ledger(tmp_path, runs))
        assert len(report.verdicts) == 1 and report.ok

    def test_bench_filter(self, tmp_path):
        ledger = make_ledger(
            tmp_path,
            [
                ("a", "sim.batched_vs_scalar", 3.0),
                ("b", "dse.batched_vs_scalar", 1.0),
            ],
        )
        report = regress(ledger, bench="a")
        assert [v.bench for v in report.verdicts] == ["a"]
        assert report.ok

    def test_non_numeric_gate_values_skipped(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        ledger.append(
            LedgerEntry(
                bench="b",
                gates=[{"name": "g", "value": "oops", "op": ">=",
                        "threshold": 1.0, "ok": False}],
            )
        )
        assert regress(ledger).verdicts == []

    def test_accepts_path_string(self, tmp_path):
        ledger = make_ledger(tmp_path, [("b", "sim.batched_vs_scalar", 3.0)])
        report = regress(str(ledger.path))
        assert report.ok and len(report.verdicts) == 1

    def test_to_dict_shape(self, tmp_path):
        ledger = make_ledger(tmp_path, [("b", "sim.batched_vs_scalar", 1.0)])
        doc = regress(ledger, baseline_window=7, noise=0.2).to_dict()
        assert doc["baseline_window"] == 7 and doc["noise"] == 0.2
        assert doc["verdicts"][0]["status"] == "fail"


class TestRender:
    def test_verdict_table(self, tmp_path):
        runs = [("b", "sim.batched_vs_scalar", 3.0)] * 2
        runs.append(("b", "sim.batched_vs_scalar", 1.5))
        text = render_regress(regress(make_ledger(tmp_path, runs)))
        assert "[FAIL]" in text
        assert "b:sim.batched_vs_scalar" in text
        assert "baseline 3 (n=2)" in text
        assert "0 pass, 0 warn, 1 fail" in text

    def test_empty_ledger(self, tmp_path):
        text = render_regress(regress(Ledger(tmp_path / "none.jsonl")))
        assert "no ledger entries" in text
