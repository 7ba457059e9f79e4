"""JSON persistence for DSE sweeps (``repro dse --save/--load``).

A sweep is a natural artifact to cache between sessions or ship next to
a paper.  The format is plain JSON with a ``format`` version tag; the
loader reconstructs full objects (configs included) and verifies the tag.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..core.config import PolyMemConfig
from ..core.exceptions import ConfigurationError
from ..core.schemes import Scheme
from ..dse.explore import DsePoint, DseResult
from ..dse.space import DesignSpace
from .output import write_text

__all__ = [
    "dse_result_to_json",
    "save_dse_result",
    "load_dse_result",
]

DSE_FORMAT = "repro.dse/1"


# the single config (de)serialization surface lives on PolyMemConfig
_config_to_dict = PolyMemConfig.to_dict
_config_from_dict = PolyMemConfig.from_dict


# -- DSE results ----------------------------------------------------------------


def dse_result_to_json(result: DseResult) -> str:
    """Serialize a sweep (points + the space that produced it)."""
    payload = {
        "format": DSE_FORMAT,
        "space": {
            "capacities_kb": list(result.space.capacities_kb),
            "lane_counts": list(result.space.lane_counts),
            "read_ports": list(result.space.read_ports),
            "schemes": [s.value for s in result.space.schemes],
            "width_bits": result.space.width_bits,
            "max_ports_by_lanes": [
                list(x) for x in result.space.max_ports_by_lanes
            ],
        },
        "points": [
            {
                "config": _config_to_dict(p.config),
                "paper_mhz": p.paper_mhz,
                "model_mhz": p.model_mhz,
                "logic_pct": p.logic_pct,
                "lut_pct": p.lut_pct,
                "bram_pct": p.bram_pct,
                "validated": p.validated,
            }
            for p in result.points
        ],
    }
    return json.dumps(payload, indent=2)


def save_dse_result(result: DseResult, path: Path | str) -> Path:
    """Write the sweep to *path* (JSON)."""
    return write_text(path, dse_result_to_json(result))


def load_dse_result(path: Path | str) -> DseResult:
    """Reconstruct a sweep saved by :func:`save_dse_result`."""
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != DSE_FORMAT:
        raise ConfigurationError(
            f"not a DSE result file (format {payload.get('format')!r})"
        )
    sp = payload["space"]
    space = DesignSpace(
        capacities_kb=tuple(sp["capacities_kb"]),
        lane_counts=tuple(sp["lane_counts"]),
        read_ports=tuple(sp["read_ports"]),
        schemes=tuple(Scheme(s) for s in sp["schemes"]),
        width_bits=sp["width_bits"],
        max_ports_by_lanes=tuple(tuple(x) for x in sp["max_ports_by_lanes"]),
    )
    points = [
        DsePoint(
            config=_config_from_dict(p["config"]),
            paper_mhz=p["paper_mhz"],
            model_mhz=p["model_mhz"],
            logic_pct=p["logic_pct"],
            lut_pct=p["lut_pct"],
            bram_pct=p["bram_pct"],
            validated=p["validated"],
        )
        for p in payload["points"]
    ]
    return DseResult(space=space, points=points)
