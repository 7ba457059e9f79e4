"""Demo lowerings: one representative access program per subsystem.

Every subsystem that lowers onto the access-program pipeline — the five
kernels, the schedule executor and the STREAM controller — registers
its lowering as a :mod:`repro.program.builder` spec.  This module
collects one small, deterministic instance of each under a stable name,
for the CLI's ``program dump`` subcommand and for cross-subsystem tests.

Kept out of :mod:`repro.program`'s public namespace on purpose: the
demos import the kernels (which import the package), so they load
lazily, on first use.
"""

from __future__ import annotations

import numpy as np

from .ir import AccessProgram

__all__ = ["DEMO_NAMES", "lower_demo"]


def _matmul():
    from .builder import build

    a = np.arange(8 * 8, dtype=np.uint64).reshape(8, 8)
    b = (np.arange(8 * 8, dtype=np.uint64) % 7).reshape(8, 8)
    built = build("kernel.matmul", a=a, b=b, p=2, q=4)
    return built.program, built.mems


def _stencil():
    from .builder import build

    image = np.arange(8 * 8, dtype=np.int64).reshape(8, 8)
    weights = np.ones((3, 3), dtype=np.int64)
    built = build("kernel.stencil", image=image, weights=weights, p=2, q=4)
    return built.program, built.mems


def _jacobi():
    from .builder import build

    grid = np.linspace(0.0, 1.0, 8 * 8).reshape(8, 8)
    built = build("kernel.jacobi", grid=grid, iterations=2, p=2, q=4)
    return built.program, built.mems


def _transpose():
    from .builder import build

    matrix = np.arange(8 * 8, dtype=np.uint64).reshape(8, 8)
    built = build("kernel.transpose", matrix=matrix, p=2, q=4)
    return built.program, built.mems


def _reduce(direction: str):
    from ..kernels.reduction import load_matrix
    from .builder import build

    pm = load_matrix(np.arange(8 * 8, dtype=np.uint64).reshape(8, 8))
    spec = "kernel.reduce_rows" if direction == "rows" else "kernel.reduce_columns"
    built = build(spec, pm=pm)
    return built.program, built.mems


def _schedule():
    from ..schedule import customize, transpose_trace
    from ..schedule.executor import memory_for_trace
    from .builder import build

    trace = transpose_trace(8, 8)
    best = customize(trace, lane_grids=[(2, 4)], solver="greedy").best
    pm, _ = memory_for_trace(trace, best)
    built = build("schedule.accesses", schedule=best, memory=pm)
    return built.program, built.mems


def _stream_copy():
    from ..core.config import PolyMemConfig
    from ..core.schemes import Scheme
    from ..stream_bench.apps import Mode
    from ..stream_bench.controller import Job, StreamController
    from .builder import build

    config = PolyMemConfig(
        12 * 32 * 8, p=2, q=4, scheme=Scheme.RoCo, read_ports=2,
        rows=12, cols=32,
    )
    controller = StreamController("controller", config)
    # describe-only: the write stream's values arrive over wr_data at
    # simulation time, so this program documents the access shape only
    built = build("stream.job", controller=controller, job=Job(Mode.COPY, vectors=8))
    return built.program, built.mems


_DEMOS = {
    "matmul": _matmul,
    "stencil": _stencil,
    "jacobi": _jacobi,
    "transpose": _transpose,
    "reduce_rows": lambda: _reduce("rows"),
    "reduce_columns": lambda: _reduce("columns"),
    "schedule": _schedule,
    "stream_copy": _stream_copy,
}

DEMO_NAMES = tuple(_DEMOS)


def lower_demo(name: str) -> tuple[AccessProgram, dict]:
    """Build the named demo; returns ``(program, mems)``.

    *mems* maps the program's memory names to live PolyMems, empty for
    describe-only programs (whose writes carry no values).
    """
    from .ir import ProgramError

    if name not in _DEMOS:
        raise ProgramError(
            f"unknown demo {name!r} (use one of {', '.join(DEMO_NAMES)})"
        )
    return _DEMOS[name]()
