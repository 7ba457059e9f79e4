"""Schedule execution: run a §III-A schedule against a real PolyMem.

Closes the loop of the customization flow: the optimizer *predicts* a
schedule length; :func:`execute_schedule` actually issues every scheduled
parallel access against a PolyMem holding the data and verifies

* **coverage** — every required cell was fetched at least once;
* **cycles** — the realized cycle count equals the predicted
  ``n_accesses`` (one access per cycle);
* **data** — the gathered values match the stored matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.config import PolyMemConfig
from ..core.exceptions import ScheduleError
from ..core.patterns import pattern_offsets
from ..core.polymem import PolyMem
from ..program import AccessProgram
from ..program.builder import build
from .customize import Schedule
from .trace import ApplicationTrace

__all__ = [
    "ExecutionResult",
    "execute_schedule",
    "memory_for_trace",
]


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of executing a schedule."""

    schedule: Schedule
    cycles: int
    fetched_cells: frozenset[tuple[int, int]]
    required_cells: frozenset[tuple[int, int]]
    data_correct: bool

    @property
    def covered(self) -> bool:
        return self.required_cells <= self.fetched_cells

    @property
    def matches_prediction(self) -> bool:
        return self.cycles == self.schedule.n_accesses

    @property
    def overfetch_ratio(self) -> float:
        """Fetched lane slots vs required cells (1.0 = no wasted lanes)."""
        return (self.cycles * self.schedule.lanes) / len(self.required_cells)


def memory_for_trace(
    trace: ApplicationTrace, schedule: Schedule, fill: np.ndarray | None = None
) -> tuple[PolyMem, np.ndarray]:
    """A PolyMem sized for the trace's region, loaded with *fill* (or the
    flat-index matrix)."""
    p, q = schedule.p, schedule.q
    rows = -(-trace.rows // p) * p
    cols = -(-trace.cols // q) * q
    cfg = PolyMemConfig(
        rows * cols * 8, p=p, q=q, scheme=schedule.scheme, rows=rows, cols=cols
    )
    pm = PolyMem(cfg)
    if fill is None:
        fill = np.arange(rows * cols, dtype=np.uint64).reshape(rows, cols)
    pm.load(fill)
    pm.reset_stats()
    return pm, fill


def _schedule_program(schedule: Schedule) -> AccessProgram:
    """Lower a schedule to an access program: one read stream whose
    heterogeneous per-cycle kind sequence keeps it a single trace even
    when the schedule mixes access shapes."""
    prog = AccessProgram(
        f"schedule:{schedule.trace_name}",
        metadata={"scheme": schedule.scheme, "p": schedule.p, "q": schedule.q},
    )
    accesses = schedule.accesses
    if not accesses:
        return prog
    n = len(accesses)
    kinds = [a.kind for a in accesses]
    ai = np.fromiter((a.i for a in accesses), dtype=np.int64, count=n)
    aj = np.fromiter((a.j for a in accesses), dtype=np.int64, count=n)
    kind = kinds[0] if len(set(kinds)) == 1 else kinds
    return prog.read(kind, ai, aj, tag="data")


def execute_schedule(
    trace: ApplicationTrace, schedule: Schedule
) -> ExecutionResult:
    """Issue every scheduled access; verify coverage, cycles and data."""
    if schedule.trace_name != trace.name:
        raise ScheduleError(
            f"schedule was built for trace {schedule.trace_name!r}, "
            f"got {trace.name!r}"
        )
    pm, fill = memory_for_trace(trace, schedule)
    fetched: set[tuple[int, int]] = set()
    data_ok = True
    accesses = schedule.accesses
    if accesses:
        n = len(accesses)
        kinds = [a.kind for a in accesses]
        ai = np.fromiter((a.i for a in accesses), dtype=np.int64, count=n)
        aj = np.fromiter((a.j for a in accesses), dtype=np.int64, count=n)
        results = build("schedule.accesses", schedule=schedule, memory=pm).run()[
            "data"
        ]
        for kind in dict.fromkeys(kinds):
            m = np.fromiter((k == kind for k in kinds), dtype=bool, count=n)
            di, dj = pattern_offsets(kind, schedule.p, schedule.q)
            ii = ai[m][:, None] + di
            jj = aj[m][:, None] + dj
            if not np.array_equal(results[m], fill[ii, jj]):
                data_ok = False
            fetched.update(zip(ii.ravel().tolist(), jj.ravel().tolist()))
    return ExecutionResult(
        schedule=schedule,
        cycles=pm.cycles,
        fetched_cells=frozenset(fetched),
        required_cells=trace.cells,
        data_correct=data_ok,
    )
