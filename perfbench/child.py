"""Fresh-interpreter helpers of the benchmark (run by ``run.py``).

``child.py run ARG...``
    ``repro ARG...``, as ``python -m repro`` runs it.
``child.py import MODULES``
    Import the comma-separated *MODULES* and exit.
``child.py setup WORKLOAD SEED``
    Set one in-process activity up from a cold interpreter and exit: one
    sample of the workload's ``setup_s``.  Exits 1 if a set-up operation
    failed its check.
``child.py cli STATS_PATH ARG...``
    ``repro ARG...`` with the layer wrappers installed and a telemetry
    session active; the wrapper stats and telemetry counters are written
    to *STATS_PATH* as JSON.

When ``clock.PROBES_ENV`` names a file, the child probes the host's speed
while it runs and leaves the probes there (see :mod:`clock`).
"""

from __future__ import annotations

import time

START = time.perf_counter()

import atexit  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from clock import PROBES_ENV, HostClock  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def run(argv: list[str]) -> int:
    from repro.cli import main

    return main(argv)


def import_modules(modules: str) -> int:
    for name in modules.split(","):
        importlib.import_module(name.strip())
    return 0


def setup(workload: str, seed: int) -> int:
    from activities import WORKLOADS, Bench

    bench = Bench(seed)
    try:
        WORKLOADS[workload](bench).setup()
    finally:
        bench.close()
    return 1 if bench.outcomes.failed else 0


def traced_cli(stats_path: str, argv: list[str]) -> int:
    from layers import IMPORT, LayerTracer, import_layers

    tracer = LayerTracer()
    with tracer.span(IMPORT):
        import_layers()
        import repro.cli
        from repro.telemetry import Telemetry, session

    tel = Telemetry(label=" ".join(argv))
    tracer.install()
    try:
        with session(tel):
            rc = repro.cli.main(argv)
    finally:
        tracer.uninstall()
    data = tracer.to_dict()
    data["counters"] = tel.metrics.to_dict()["counters"]
    data["lifetime"] = time.perf_counter() - START
    Path(stats_path).write_text(json.dumps(data))
    return rc


def main() -> int:
    if os.environ.get(PROBES_ENV):
        clock = HostClock()
        clock.start(pin=False)
        atexit.register(clock.save, os.environ[PROBES_ENV])
    mode, *rest = sys.argv[1:]
    if mode == "run":
        return run(rest)
    if mode == "import":
        return import_modules(rest[0])
    if mode == "setup":
        return setup(rest[0], int(rest[1]))
    return traced_cli(rest[0], rest[1:])


if __name__ == "__main__":
    sys.exit(main())
