"""The STREAM benchmark framework for MAX-PolyMem (paper §V, Fig. 9)."""

from .._lazy import export_lazily

__all__ = export_lazily(__name__, {
    "apps": ("COPY", "SCALE", "SUM", "TRIAD", "Mode", "StreamApp", "all_apps"),
    "controller": (
        "Job", "StreamController", "StreamDesign", "build_stream_design",
    ),
    "reporting": ("stream_report",),
    "harness": (
        "Fig10Point", "PIPELINE_SLACK_CYCLES", "StreamHarness",
        "StreamMeasurement", "sweep_fig10",
    ),
})
