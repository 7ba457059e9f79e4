"""PolyMem core: schemes, patterns, AGU, shuffles, banks, and the facade.

This subpackage is the paper's primary contribution — a functional model of
the polymorphic parallel memory of Fig. 3, independent of any particular
hardware substrate.
"""

from .._lazy import export_lazily

__all__ = export_lazily(__name__, {
    "addressing": ("AddressingFunction",),
    "agu": ("AGU", "AccessRequest"),
    "banks": ("BankArray",),
    "config": ("KB", "MB", "PolyMemConfig"),
    "conflict": (
        "AnchorDomain", "ConflictAnalyzer", "conflict_banks",
        "is_conflict_free",
    ),
    "exceptions": (
        "AddressError", "CapacityError", "ConfigurationError",
        "ConflictError", "PatternError", "PolyMemError", "PortError",
        "ScheduleError", "SchemeError", "SimulationError",
    ),
    "patterns": ("AccessPattern", "PatternKind", "pattern_offsets"),
    "plan": ("AccessPlan", "AccessTrace", "compile_plan", "plan_cache_stats"),
    "polymem": ("PolyMem",),
    "regions": ("Region", "RegionMap"),
    "schemes": ("SCHEME_SPECS", "Scheme", "all_schemes", "module_assignment"),
    "shuffle": ("BenesNetwork", "FullCrossbar", "InverseShuffle", "Shuffle"),
})
