"""Byte-identity pins: CLI stdout against text captured under tests/golden/.

Each golden file is the stdout of one command in a fresh interpreter. The
process-wide fusion kernel cache is swapped for an empty one, so the
``kernel cache: ... resident`` line reads as it does in a fresh process.
"""

from pathlib import Path

import pytest

from repro.cli import main
from repro.program import fuse

GOLDEN = Path(__file__).parent / "golden"

DEMOS = (
    "matmul", "stencil", "jacobi", "transpose", "reduce_rows",
    "reduce_columns", "schedule", "stream_copy",
)

CASES = [(f"program_dump_{demo}", ["program", "dump", demo]) for demo in DEMOS]
CASES += [
    ("info", ["info"]),
    ("validate_max_rows_8", ["validate", "--max-rows", "8"]),
]


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_stdout_matches_golden(name, argv, capsys, monkeypatch):
    monkeypatch.setattr(fuse, "kernel_cache", fuse.KernelCache())
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()


def test_every_demo_is_pinned():
    from repro.program.lower import DEMO_NAMES

    assert sorted(DEMO_NAMES) == sorted(DEMOS)
