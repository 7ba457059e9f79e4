"""Design Space Exploration (paper §IV): Tables III–IV, Figures 4–8."""

from .._lazy import export_lazily

__all__ = export_lazily(__name__, {
    "bandwidth": (
        "BandwidthReport", "achieved_bandwidth", "backend_peaks",
        "bandwidth_report", "port_bandwidth_gbps",
    ),
    "explore": ("DsePoint", "DseResult", "explore"),
    "report": (
        "column_label", "dse_report", "figure_series", "render_series_table",
        "render_table_iv", "to_csv",
    ),
    "space": ("LANE_GRIDS", "PAPER_SPACE", "DesignSpace"),
    "pareto": ("ParetoPoint", "best_under_budget", "pareto_frontier"),
    "whatif": (
        "DeviceWhatIf", "FeasibilityPoint", "feasibility_frontier",
        "lane_grid_for", "max_capacity_kb", "whatif_devices",
    ),
})
