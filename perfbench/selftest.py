"""Self-test of the benchmark: tiny passes of every workload.

    python3 perfbench/selftest.py

Checks that, on every workload,

* every metric ``BENCHMARK.json`` names is printed with its unit —
  end-to-end metrics with ``--trace 0``, per-layer ones with ``--trace 1``;
* every wrapper the workload's layers need fires (the traced run passes);
* a tampered golden, and separately a corrupted output, each raise
  ``error_rate`` above 0 and make ``run.py`` exit non-zero;

and that ``run.py`` exits non-zero without printing a result in a copy
holding only ``BENCHMARK.json`` and the benchmark's files.  Exits 0 when
everything holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli_cold", "design_sweep", "stream_sim", "kernel_access")


def run(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    """Exit code and final JSON line of a tiny ``run.py`` invocation."""
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "0",
         "--seconds", "0.1", "--tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode, None


def tamper_goldens(src: Path, dst: Path) -> None:
    """Copy the goldens, changing every entry."""
    shutil.copytree(src, dst)
    for path in dst.glob("*.json"):
        data = json.loads(path.read_text())
        for key, value in data.items():
            if isinstance(value, int):
                data[key] = value + 1
            elif isinstance(value, str):
                data[key] = value[::-1]
            else:
                data[key] = value[1:]
        path.write_text(json.dumps(data))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"  {'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    scratch = ROOT / ".perfbench_run"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        tampered = tmp / "goldens"
        tamper_goldens(HERE / "goldens", tampered)
        for workload in WORKLOADS:
            print(workload, flush=True)
            for trace in (0, 1):
                rc, result = run("--workload", workload, "--trace", str(trace))
                printed = {} if result is None else {
                    name: m["unit"] for name, m in result["metrics"].items()
                }
                expect(rc == 0 and result is not None and result["correct"],
                       f"--trace {trace} passes its checks and wrappers fire")
                expect(printed == units[trace],
                       f"--trace {trace} prints every named metric with its unit")
            for label, extra in (
                ("tampered golden", ("--goldens", str(tampered))),
                ("corrupted output", ("--inject-fault",)),
            ):
                rc, result = run("--workload", workload, "--trace", "1", *extra)
                rate = None if result is None else result["metrics"]["error_rate"]["value"]
                expect(rc != 0 and rate is not None and rate > 0,
                       f"a {label} raises error_rate ({rate}) and fails the run")
        bare = tmp / "bare"
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        rc, result = run("--workload", WORKLOADS[0], cwd=bare)
        expect(rc != 0 and result is None,
               "without the sources it exits non-zero and prints no result")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print("self-test", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
