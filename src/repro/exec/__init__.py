"""repro.exec — the cached, batched execution runtime for grid work.

The paper's evaluation is one big grid walk: the Table III design-space
sweep (→ Table IV, Figs 4–8), the §IV-A per-config validation cycles, the
Fig. 10 size sweep, and the scorecard that re-derives all of them.  This
package gives every entry point (CLI, benchmarks, tests) one way to run
such grids:

:func:`run_sweep` / :class:`SweepTask`
    One in-process pass over independent points: cache lookup first,
    sibling points grouped into one vectorized ``batch_fn`` call, each
    finished group persisted to the cache, deterministic result ordering
    and wall-clock accounting (:class:`RunResult` / :class:`SweepResult`).
:class:`ResultCache` / :func:`cache_key`
    A content-addressed on-disk cache keyed by a stable hash of
    *(experiment id, config, params, model version)* — warm re-runs skip
    straight to the answers.
:class:`Report` / :class:`ReportEntry`
    The unified JSON result schema shared by ``benchmarks/out``,
    ``dse.report`` and ``experiments``; human tables are renderers over it.
"""

from .cache import (
    MISS,
    MODEL_VERSION,
    ResultCache,
    cache_key,
    default_cache_dir,
)
from .report import REPORT_FORMAT, Report, ReportEntry, rel_error
from .runtime import (
    RunResult,
    SweepResult,
    SweepTask,
    run_sweep,
)

__all__ = [
    "MISS",
    "MODEL_VERSION",
    "REPORT_FORMAT",
    "Report",
    "ReportEntry",
    "ResultCache",
    "RunResult",
    "SweepResult",
    "SweepTask",
    "cache_key",
    "default_cache_dir",
    "rel_error",
    "run_sweep",
]
