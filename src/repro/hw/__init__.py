"""FPGA hardware substrate: BRAM primitives, devices, synthesis estimation.

This subpackage replaces the parts of the paper's flow that require real
hardware and vendor tools (see DESIGN.md, "Hardware-gate substitutions").
"""

from .._lazy import export_lazily

__all__ = export_lazily(__name__, {
    "bram": ("BramBudget", "RAMB36", "polymem_bram_usage"),
    "calibration": (
        "BRAM_POINTS", "LOGIC_POINTS", "STREAM_COPY", "TABLE_IV_MHZ",
        "table_iv_frequency", "table_iv_grid",
    ),
    "crossbar": ("ShuffleInventory", "design_shuffles"),
    "fpga": ("VIRTEX6_LX240T", "VIRTEX6_SX475T", "FpgaDevice", "devices"),
    "synthesis": (
        "MAF_COMPLEXITY", "SynthesisModel", "SynthesisReport",
        "default_model",
    ),
})
