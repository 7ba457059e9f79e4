"""JSON persistence for DSE sweeps and access schedules.

DSE sweeps take seconds and schedules can take longer (exact ILP); both
are natural artifacts to cache between sessions or ship next to a paper.
The format is plain JSON with a ``format`` version tag; loaders
reconstruct full objects (configs included) and verify the tag.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..core.config import PolyMemConfig
from ..core.exceptions import ConfigurationError
from ..core.patterns import PatternKind
from ..core.schemes import Scheme
from ..dse.explore import DsePoint, DseResult
from ..dse.space import DesignSpace
from ..schedule.cover import CandidateAccess
from ..schedule.customize import Schedule
from .output import write_text

__all__ = [
    "dse_result_to_json",
    "save_dse_result",
    "load_dse_result",
    "schedule_to_json",
    "save_schedule",
    "load_schedule",
]

DSE_FORMAT = "repro.dse/1"
SCHEDULE_FORMAT = "repro.schedule/1"


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


# -- schedules --------------------------------------------------------------------


def schedule_to_json(schedule: Schedule) -> str:
    """Serialize an access schedule."""
    payload = {
        "format": SCHEDULE_FORMAT,
        "trace_name": schedule.trace_name,
        "scheme": schedule.scheme.value,
        "p": schedule.p,
        "q": schedule.q,
        "proven_optimal": schedule.proven_optimal,
        "solver": schedule.solver,
        "n_cells": schedule._n_cells,
        "accesses": [
            {"kind": a.kind.value, "i": a.i, "j": a.j}
            for a in schedule.accesses
        ],
    }
    return json.dumps(payload, indent=2)


def save_schedule(schedule: Schedule, path: Path | str) -> Path:
    return write_text(path, schedule_to_json(schedule))


def load_schedule(path: Path | str) -> Schedule:
    """Reconstruct a schedule saved by :func:`save_schedule`."""
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != SCHEDULE_FORMAT:
        raise ConfigurationError(
            f"not a schedule file (format {payload.get('format')!r})"
        )
    return Schedule(
        trace_name=payload["trace_name"],
        scheme=Scheme(payload["scheme"]),
        p=payload["p"],
        q=payload["q"],
        accesses=tuple(
            CandidateAccess(PatternKind(a["kind"]), a["i"], a["j"])
            for a in payload["accesses"]
        ),
        proven_optimal=payload["proven_optimal"],
        solver=payload["solver"],
        _n_cells=payload["n_cells"],
    )
