"""Capture the goldens that the benchmark checks outputs against.

    python3 perfbench/capture_goldens.py [OUT_DIR]

Runs every operation the workloads can draw — each CLI command, every
explore/whatif call, every STREAM size, every kernel shape variant on every
lane grid — through the same code paths as ``run.py`` and writes what the
checks compare: CLI stdout lines (host-timing lines dropped), digests of
the ``DsePoint`` payloads and ``DeviceWhatIf`` rows, and simulated cycle
counts.  NumPy checks still apply while capturing.  Kernel cycle counts
are recorded only if two runs on different inputs agree.  The checked-in
goldens were captured on the commit that introduced the benchmark.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from activities import (
    FRESH_VARIANTS,
    GOLDENS,
    HOT_VARIANTS,
    LANE_GRIDS,
    READ_KERNELS,
    WRITE_KERNELS,
    Bench,
    CliCold,
    DesignSweep,
    KernelAccess,
    StreamSim,
)


def capture(bench: Bench) -> None:
    rng = np.random.default_rng(bench.seed)
    CliCold(bench).setup()
    for cls in (DesignSweep, StreamSim):
        activity = cls(bench)
        activity.setup()
        activity.run_pass(rng)
    kernels = KernelAccess(bench)
    kernels.setup()
    for p, q in LANE_GRIDS:
        for kernel in READ_KERNELS + WRITE_KERNELS:
            for variant in HOT_VARIANTS + FRESH_VARIANTS:
                first = kernels.run(kernel, p, q, variant, rng)
                again = kernels.run(kernel, p, q, variant, rng)
                if first != again:
                    raise SystemExit(
                        f"{kernel}/{p}x{q}/{variant}: cycles depend on the "
                        f"inputs ({first} vs {again})"
                    )


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDENS
    bench = Bench(seed=0)
    bench.captured = {}
    try:
        capture(bench)
    finally:
        bench.close()
    if bench.outcomes.failed:
        print(f"{bench.outcomes.failed} operations failed; goldens not written",
              file=sys.stderr)
        return 1
    out.mkdir(parents=True, exist_ok=True)
    for name, values in bench.captured.items():
        (out / name).write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")
        print(f"{out / name}: {len(values)} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
