"""Cross-cutting utilities: result persistence and output files."""

from .._lazy import export_lazily

__all__ = export_lazily(__name__, {
    "output": ("write_text",),
    "persist": (
        "dse_result_to_json", "load_dse_result", "load_schedule",
        "save_dse_result", "save_schedule", "schedule_to_json",
    ),
})
