"""The paper's §IV-A validation cycle.

*"We validate each design with a simple read/write cycle: the host fills
MAX-PolyMem with unique numerical values, and then reads them back using
parallel accesses."*

:func:`validate_design` reproduces that procedure through the dataflow
design's streams (not by touching the memory model directly): unique
values are written through the write port using aligned rectangle accesses
(conflict-free under every scheme), then read back through every read port
using every pattern the scheme supports, and compared against the expected
layout.

:func:`validate_points_batch` runs the cycle over a whole grid of
configurations in one vectorized pass, which is how the DSE sweep
"validate[s] each design" (``explore(validate=True)``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from ..core.config import PolyMemConfig
from ..core.exceptions import ConfigurationError
from ..core.patterns import AccessPattern, PatternKind, pattern_offsets
from ..core.plan import AccessBlock, compile_plan, compile_plan_batch
from ..core.schemes import SCHEME_SPECS

if TYPE_CHECKING:
    from .design import PolyMemDesign

__all__ = [
    "ValidationReport",
    "validate_design",
    "validate_config",
    "validate_points_batch",
    "validated_rows",
]


def _validation_plan_keys(config: PolyMemConfig) -> list[tuple]:
    """The plan-family keys one §IV-A cycle touches: the fill phase's
    aligned ``RECTANGLE`` accesses plus every supported readback pattern
    whose condition holds."""
    p, q = config.p, config.q
    kinds = {PatternKind.RECTANGLE}
    for entry in SCHEME_SPECS[config.scheme].supported:
        if entry.condition_holds(p, q):
            kinds.add(entry.kind)
    return [
        (config.rows, config.cols, p, q, config.scheme, kind, 1)
        for kind in kinds
    ]


@dataclass
class ValidationReport:
    """Outcome of one validation cycle."""

    config_label: str
    writes: int = 0
    reads: int = 0
    mismatches: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches and self.reads > 0


def _reference_matrix(rows: int, cols: int) -> np.ndarray:
    """Unique values: flat index + 1 (nonzero to catch missed writes)."""
    return (np.arange(rows * cols, dtype=np.uint64) + 1).reshape(rows, cols)


def _fill_block(ref: np.ndarray, p: int, q: int) -> AccessBlock:
    """The fill phase over the region *ref* covers: one aligned ``p x q``
    ``RECTANGLE`` write per lane block, in row-major block order
    (conflict-free under every scheme), each carrying its block of *ref*
    in lane order."""
    rows, cols = ref.shape
    bi, bj = np.divmod(np.arange((rows // p) * (cols // q)), cols // q)
    bi, bj = bi * p, bj * q
    di, dj = pattern_offsets(PatternKind.RECTANGLE, p, q)
    values = ref[bi[:, None] + di, bj[:, None] + dj]
    return AccessBlock(PatternKind.RECTANGLE, bi, bj, values=values)


def _read_anchors(pattern: AccessPattern, rows: int, cols: int, entry, p, q):
    """A probe set of anchors per pattern: corners and a misaligned interior
    point where the scheme allows it."""
    h, w = pattern.shape
    j_base = w - 1 if pattern.kind is PatternKind.ANTI_DIAGONAL else 0
    candidates = [
        (0, j_base),
        (rows - h, j_base),
        (0, j_base + (cols - w)),
        (rows - h, j_base + (cols - w)),
        (max(0, rows // 2 - h), j_base + max(0, cols // 2 - w)),
        (1, j_base + 1),
    ]
    # dedupe, keep only anchors the scheme supports and that fit
    out = []
    for i, j in dict.fromkeys(candidates):
        ii, jj = pattern.coordinates(i, j)
        if ii.min() < 0 or jj.min() < 0 or ii.max() >= rows or jj.max() >= cols:
            continue
        if entry.anchor_ok(i, j, p, q):
            out.append((i, j))
    return out


def _readback_blocks(cfg: PolyMemConfig, rows: int):
    """The readback probes of one port: per supported pattern whose
    condition holds, one read block of its probe anchors
    (:func:`_read_anchors` over the first *rows* rows) with the
    ``(n, lanes)`` coordinates it reads."""
    p, q = cfg.p, cfg.q
    for entry in SCHEME_SPECS[cfg.scheme].supported:
        if not entry.condition_holds(p, q):
            continue
        pattern = AccessPattern(entry.kind, p, q)
        anchors = _read_anchors(pattern, rows, cfg.cols, entry, p, q)
        if anchors:
            ai, aj = np.array(anchors, dtype=np.int64).T
            di, dj = pattern.offsets
            yield AccessBlock(entry.kind, ai, aj), (ai[:, None] + di, aj[:, None] + dj)


def validated_rows(config: PolyMemConfig, max_rows: int | None) -> int:
    """Rows of the §IV-A validated region: the memory's rows, capped at
    *max_rows* (``None``: all of them).  The region must be a positive
    whole number of ``p``-row lane blocks, else :class:`ConfigurationError`
    is raised."""
    rows = config.rows if max_rows is None else min(config.rows, max_rows)
    if rows <= 0 or rows % config.p:
        raise ConfigurationError(
            f"validated region of {rows} rows is not a positive multiple "
            f"of p={config.p} (max_rows={max_rows})"
        )
    return rows


def validate_design(design: PolyMemDesign, max_rows: int | None = 64) -> ValidationReport:
    """Run the §IV-A validation cycle through the design's streams.

    ``max_rows`` bounds the validated region for very large memories (the
    full 4 MB space would need half a million stream elements); ``None``
    validates everything; see :func:`validated_rows`.
    """
    from ..maxeler.conditions import StreamFill

    cfg = design.config
    rows = validated_rows(cfg, max_rows)
    host = design.host()
    report = ValidationReport(config_label=cfg.label())
    ref = _reference_matrix(rows, cfg.cols)

    # -- fill with unique values: aligned p x q rectangles ----------------
    host.begin_stage("fill")
    fill = _fill_block(ref, cfg.p, cfg.q)
    host.write_stream("wr_cmd", fill)
    report.writes = len(fill)
    host.run_kernel(max_cycles=20 * len(fill) + 1000)

    # -- read back through every supported pattern on every port -----------
    # one command block per port, every pattern's probes back to back: the
    # read pipe streams from one pattern into the next without draining;
    # each port's readback is compared with the reference as one array
    host.begin_stage("readback")
    probes = list(_readback_blocks(cfg, rows))
    if not probes:
        return report
    block = AccessBlock.concat([b for b, _ in probes])
    wants = np.concatenate([ref[cells] for _, cells in probes])
    for port in range(cfg.read_ports):
        out_stream = design.dfe.manager.host_output(f"rd_out{port}")
        n = host.write_stream(f"rd_cmd{port}", block)
        host.run_kernel(
            until=StreamFill(out_stream, n),
            max_cycles=50 * n + 10 * design.read_latency + 1000,
        )
        got = host.read_stream(f"rd_out{port}")
        report.reads += len(got)
        for t in np.flatnonzero((got != wants).any(axis=1)):
            req = block.request(t)
            report.mismatches.append(
                f"port {port} {req.kind.value}@({req.i},{req.j}): "
                f"got {got[t]}, want {wants[t]}"
            )
    return report


def validate_config(
    config: PolyMemConfig,
    max_rows: int | None = 16,
    style: str = "fused",
) -> dict:
    """Build + validate one configuration, returning the plain-JSON
    payload (the per-config reference of the validation grid)."""
    from .design import build_design

    design = build_design(config, style=style, clock_source="model")
    report = validate_design(design, max_rows=max_rows)
    return {
        "config_label": report.config_label,
        "passed": report.passed,
        "writes": report.writes,
        "reads": report.reads,
        "mismatches": list(report.mismatches),
    }


def _validate_family_tables(
    cfg: PolyMemConfig, rows_v: int, ref: np.ndarray, fill: AccessBlock
) -> tuple[int, int] | None:
    """Run one family's §IV-A cycle on the compiled slot tables alone.

    Simulates the fill scatter and every supported readback gather on a
    flat slot image (the same ``bank * depth + address`` ids the design's
    write and read paths resolve to), in the scalar cycle's write order.
    Returns ``(reads_per_port, writes)`` when every probe matches the
    reference — the clean case, where the full-simulator cycle passes too
    — or ``None`` for *any* irregularity (a fill access or probe out of
    bounds or conflicting, a value mismatch), telling the caller to fall back to
    the scalar :func:`validate_config` so payloads stay byte-identical by
    construction.
    """
    plan_of = partial(compile_plan, cfg.rows, cfg.cols, cfg.p, cfg.q, cfg.scheme)
    slots, valid = fill.tables(plan_of)
    if not valid.all():
        return None
    image = np.zeros(cfg.total_words, dtype=np.uint64)
    # duplicate slot ids resolve last-write-wins, matching the sequential
    # command order of the stream-driven fill
    image[slots.reshape(-1)] = fill.values.reshape(-1)
    reads = 0
    for block, cells in _readback_blocks(cfg, rows_v):
        slots, valid = block.tables(plan_of)
        if not valid.all() or not (image[slots] == ref[cells]).all():
            return None
        reads += len(block)
    return reads, len(fill)


def validate_points_batch(
    configs,
    max_rows: int | None = 16,
    style: str = "fused",
) -> list[dict]:
    """Vectorized :func:`validate_config` over a config array.

    Configs are grouped by geometry family ``(rows, cols, p, q)``; each
    family shares one batched plan-table build
    (:func:`~repro.core.plan.compile_plan_batch`) and one fill block
    (:func:`_fill_block`, the one the simulated cycle pushes), and runs
    one slot-image fill/readback pass per scheme (read ports only replicate
    the readback, so sibling port counts reuse the same pass).  Any
    config the fast path cannot prove clean — a misaligned validated
    region, a conflicting fill or probe, a mismatch — falls back to the scalar
    simulator cycle, so every payload (and the :class:`ConfigurationError`
    a misaligned region raises) equals the scalar one byte for byte
    (pinned by ``tests/dse/test_batch_equivalence.py``).
    """
    configs = list(configs)
    payloads: list[dict | None] = [None] * len(configs)
    compile_plan_batch(
        [key for cfg in configs for key in _validation_plan_keys(cfg)]
    )
    geo_groups: dict[tuple, list[int]] = {}
    for n, cfg in enumerate(configs):
        geo_groups.setdefault((cfg.rows, cfg.cols, cfg.p, cfg.q), []).append(n)
    for (rows, cols, p, q), members in geo_groups.items():
        rows_v = rows if max_rows is None else min(rows, max_rows)
        scheme_of: dict = {}
        for n in members:
            scheme_of.setdefault(configs[n].scheme, []).append(n)
        fill = None
        if rows_v > 0 and not rows_v % p and not cols % q:
            ref = _reference_matrix(rows_v, cols)
            fill = _fill_block(ref, p, q)
        for ns in scheme_of.values():
            family = None
            if fill is not None:
                family = _validate_family_tables(configs[ns[0]], rows_v, ref, fill)
            if family is None:
                for n in ns:
                    payloads[n] = validate_config(configs[n], max_rows, style)
                continue
            reads, writes = family
            for n in ns:
                cfg = configs[n]
                payloads[n] = {
                    "config_label": cfg.label(),
                    "passed": reads > 0,
                    "writes": writes,
                    "reads": cfg.read_ports * reads,
                    "mismatches": [],
                }
    return payloads

