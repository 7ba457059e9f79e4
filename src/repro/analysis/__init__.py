"""Productivity analysis (paper §III-C, Table II)."""

from .._lazy import export_lazily

__all__ = export_lazily(__name__, {
    "productivity": (
        "PAPER_TABLE_II", "ModuleRow", "count_loc", "productivity_table",
        "render_table",
    ),
})
