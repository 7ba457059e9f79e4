"""Application-driven PolyMem customization (paper §III-A).

The end-to-end design flow: an application access trace is covered by the
fewest conflict-free parallel accesses (set covering, exact branch-and-bound
ILP with a greedy baseline), and candidate configurations are ranked by
speedup and efficiency.
"""

from .._lazy import export_lazily

__all__ = export_lazily(__name__, {
    "cover": ("CandidateAccess", "CoverProblem", "build_cover_problem"),
    "executor": ("ExecutionResult", "execute_schedule", "memory_for_trace"),
    "customize": (
        "CustomizationResult", "Schedule", "customize", "schedule_trace",
    ),
    "greedy": ("greedy_cover",),
    "ilp": ("IlpSolution", "solve_cover"),
    "trace": (
        "ApplicationTrace", "block_trace", "column_trace", "diagonal_trace",
        "random_trace", "row_trace", "stencil_trace", "transpose_trace",
    ),
})
