"""repro.exec — the cached execution runtime for grid work.

The paper's evaluation rests on two fixed grids: the Table III
design-space sweep (→ Table IV, Figs 4–8) and the §IV-A per-config
validation cycles, both re-derived by the scorecard.  This package gives
every entry point (CLI, benchmarks, tests) one way to run such grids:

:func:`run_sweep` / :class:`SweepResult`
    One in-process pass over a sweep: a cache lookup first, else one
    ``compute(configs, **params)`` call whose payloads are stored as the
    sweep's one cache entry, plus wall-clock accounting.
:class:`ResultCache` / :func:`cache_key`
    A content-addressed on-disk cache with one entry per sweep, keyed by
    a stable hash of *(experiment id, configs, params, model version)* —
    warm re-runs skip straight to the answers.
:class:`Report` / :class:`ReportEntry`
    The unified JSON result schema shared by ``benchmarks/out``,
    ``dse.report`` and ``experiments``; human tables are renderers over it.
"""

from .._lazy import export_lazily

__all__ = export_lazily(__name__, {
    "cache": (
        "MODEL_VERSION", "ResultCache", "cache_key", "default_cache_dir",
    ),
    "report": ("REPORT_FORMAT", "Report", "ReportEntry", "rel_error"),
    "runtime": ("SweepResult", "run_sweep"),
})
