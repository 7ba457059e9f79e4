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

:func:`validate_configs` runs the cycle over a whole grid of
configurations through :mod:`repro.exec` — batched, and cached when
asked — which is how the paper "validate[s] each design" across the DSE.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..core.agu import AccessRequest
from ..core.config import PolyMemConfig
from ..core.exceptions import ConfigurationError, ConflictError
from ..core.patterns import AccessPattern, PatternKind
from ..core.plan import compile_plan, compile_plan_batch
from ..core.schemes import SCHEME_SPECS

if TYPE_CHECKING:
    from .design import PolyMemDesign

__all__ = [
    "ValidationReport",
    "conflict_free_chunk",
    "validate_design",
    "validate_config",
    "validate_configs",
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
    from .kernel import WriteCommand

    cfg = design.config
    rows = validated_rows(cfg, max_rows)
    cols = cfg.cols
    p, q = cfg.p, cfg.q
    host = design.host()
    report = ValidationReport(config_label=cfg.label())
    ref = _reference_matrix(rows, cols)

    # -- fill with unique values: aligned p x q rectangles ----------------
    host.begin_stage("fill")
    commands = []
    for bi in range(0, rows, p):
        for bj in range(0, cols, q):
            vals = ref[bi : bi + p, bj : bj + q].ravel()
            commands.append(
                WriteCommand(AccessRequest(PatternKind.RECTANGLE, bi, bj), vals)
            )
    host.write_stream("wr_cmd", commands)
    report.writes = len(commands)
    host.run_kernel(max_cycles=20 * len(commands) + 1000)

    # -- read back through every supported pattern on every port -----------
    spec = SCHEME_SPECS[cfg.scheme]
    host.begin_stage("readback")
    for port in range(cfg.read_ports):
        out_stream = design.dfe.manager.host_output(f"rd_out{port}")
        for entry in spec.supported:
            if not entry.condition_holds(p, q):
                continue
            pattern = AccessPattern(entry.kind, p, q)
            anchors = _read_anchors(pattern, rows, cols, entry, p, q)
            if not anchors:
                continue
            reqs = [AccessRequest(entry.kind, i, j) for i, j in anchors]
            host.write_stream(f"rd_cmd{port}", reqs)
            expected_n = len(reqs)
            host.run_kernel(
                until=lambda s=out_stream, n=expected_n: len(s) == n,
                max_cycles=50 * expected_n + 10 * design.read_latency + 1000,
            )
            results = host.read_stream(f"rd_out{port}")
            for (i, j), got in zip(anchors, results):
                ii, jj = pattern.coordinates(i, j)
                want = ref[ii, jj]
                report.reads += 1
                if not np.array_equal(np.asarray(got), want):
                    report.mismatches.append(
                        f"port {port} {entry.kind.value}@({i},{j}): "
                        f"got {got}, want {want}"
                    )
    return report


def validate_config(
    config: PolyMemConfig,
    max_rows: int | None = 16,
    style: str = "fused",
) -> dict:
    """Build + validate one configuration, returning the plain-JSON
    payload (the :class:`~repro.exec.SweepTask` function for the
    validation grid)."""
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


def conflict_free_chunk(
    configs,
    kind,
    anchors_i,
    anchors_j,
    stride: int = 1,
    *,
    policy: str = "allow",
) -> np.ndarray:
    """Conflict-freedom of one shared access chunk across N configs.

    Returns an ``(N, B)`` boolean mask: entry ``[n, b]`` is True when the
    *kind* access anchored at ``(anchors_i[b], anchors_j[b])`` is in
    bounds *and* bank-conflict-free for ``configs[n]`` — the verdict of
    ``plan.fits(i, j) and plan.conflict_free(i, j)`` per anchor, which the
    hypothesis parity suite pins this against.  Every plan family
    compiles through one :func:`~repro.core.plan.compile_plan_batch`
    build and, per lane grid, the residue ``ok`` tables of the distinct
    families stack so the whole chunk resolves in one fancy-indexed
    gather.

    ``policy="forbid"`` raises :class:`~repro.core.exceptions.ConflictError`
    for the first failing ``(config, anchor)`` in config-major order.
    """
    configs = list(configs)
    kind = PatternKind(kind)
    ai = np.asarray(anchors_i, dtype=np.int64)
    aj = np.asarray(anchors_j, dtype=np.int64)
    if ai.shape != aj.shape or ai.ndim != 1:
        raise ValueError("anchors must be equal-length 1-D arrays")
    out = np.empty((len(configs), ai.size), dtype=bool)
    keys = [
        (cfg.rows, cfg.cols, cfg.p, cfg.q, cfg.scheme, kind, stride)
        for cfg in configs
    ]
    plans = compile_plan_batch(keys)
    by_grid: dict[tuple[int, int], list[int]] = {}
    for n, key in enumerate(keys):
        by_grid.setdefault((key[2], key[3]), []).append(n)
    for (p, q), ns in by_grid.items():
        period = p * q
        ri = ai % period
        rj = aj % period
        distinct = list(dict.fromkeys(keys[n] for n in ns))
        # (D, B): every distinct family's residue verdicts in one pass
        ok_rows = np.stack([plans[k].ok for k in distinct])[:, ri, rj]
        row_of = {k: d for d, k in enumerate(distinct)}
        for n in ns:
            out[n] = plans[keys[n]].fits_mask(ai, aj) & ok_rows[row_of[keys[n]]]
    if policy == "forbid":
        bad = np.argwhere(~out)
        if bad.size:
            n, b = (int(x) for x in bad[0])
            raise ConflictError(
                f"{configs[n].label()}: {kind.value} access at "
                f"({int(ai[b])}, {int(aj[b])}) is out of bounds or "
                f"bank-conflicting"
            )
    elif policy != "allow":
        raise ValueError(f"unknown conflict policy {policy!r}")
    return out


def _validate_family_tables(
    cfg: PolyMemConfig, rows_v: int, ref: np.ndarray, bi: np.ndarray, bj: np.ndarray
) -> tuple[int, int] | None:
    """Run one family's §IV-A cycle on the compiled slot tables alone.

    Simulates the fill scatter and every supported readback gather on a
    flat slot image (the same ``bank * depth + address`` ids the design's
    write and read paths resolve to), in the scalar cycle's write order.
    Returns ``(reads_per_port, writes)`` when every probe matches the
    reference — the clean case, where the full-simulator cycle passes too
    — or ``None`` for *any* irregularity (a probe out of bounds or
    conflicting, a value mismatch), telling the caller to fall back to
    the scalar :func:`validate_config` so payloads stay byte-identical by
    construction.
    """
    rows, cols, p, q = cfg.rows, cfg.cols, cfg.p, cfg.q
    plan_rect = compile_plan(rows, cols, p, q, cfg.scheme, PatternKind.RECTANGLE, 1)
    vals = ref[bi[:, None] + plan_rect.di[None, :], bj[:, None] + plan_rect.dj[None, :]]
    image = np.zeros(cfg.total_words, dtype=np.uint64)
    # duplicate slot ids resolve last-write-wins, matching the sequential
    # command order of the stream-driven fill
    image[plan_rect.slots_many(bi, bj).reshape(-1)] = vals.reshape(-1)
    reads = 0
    for entry in SCHEME_SPECS[cfg.scheme].supported:
        if not entry.condition_holds(p, q):
            continue
        pattern = AccessPattern(entry.kind, p, q)
        anchors = _read_anchors(pattern, rows_v, cols, entry, p, q)
        if not anchors:
            continue
        ai = np.array([a[0] for a in anchors], dtype=np.int64)
        aj = np.array([a[1] for a in anchors], dtype=np.int64)
        plan = compile_plan(rows, cols, p, q, cfg.scheme, entry.kind, 1)
        if not (plan.fits_mask(ai, aj) & plan.ok_mask(ai, aj)).all():
            return None
        got = image[plan.slots_many(ai, aj)]
        want = ref[ai[:, None] + plan.di[None, :], aj[:, None] + plan.dj[None, :]]
        if not (got == want).all():
            return None
        reads += len(anchors)
    return reads, int(bi.size)


def validate_points_batch(
    configs,
    max_rows: int | None = 16,
    style: str = "fused",
) -> list[dict]:
    """Vectorized :func:`validate_config` over a config array.

    Configs are grouped by geometry family ``(rows, cols, p, q)``; each
    family shares one batched plan-table build
    (:func:`~repro.core.plan.compile_plan_batch`), one fill anchor chunk
    checked across all schemes by :func:`conflict_free_chunk`, and one
    slot-image fill/readback pass per scheme (read ports only replicate
    the readback, so sibling port counts reuse the same pass).  Any
    config the fast path cannot prove clean — a misaligned validated
    region, a conflicting or mismatching probe — falls back to the scalar
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
        if rows_v <= 0 or rows_v % p or cols % q:
            fill_ok = np.zeros((len(scheme_of), 1), dtype=bool)
            bi = bj = None
        else:
            bi = np.repeat(
                np.arange(0, rows_v, p, dtype=np.int64), len(range(0, cols, q))
            )
            bj = np.tile(
                np.arange(0, cols, q, dtype=np.int64), len(range(0, rows_v, p))
            )
            fill_ok = conflict_free_chunk(
                [configs[ns[0]] for ns in scheme_of.values()],
                PatternKind.RECTANGLE,
                bi,
                bj,
            )
        ref = _reference_matrix(rows_v, cols) if rows_v > 0 else None
        for (scheme, ns), ok_row in zip(scheme_of.items(), fill_ok):
            family = None
            if bi is not None and ok_row.all():
                family = _validate_family_tables(configs[ns[0]], rows_v, ref, bi, bj)
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


def validate_configs(
    configs: Iterable[PolyMemConfig],
    max_rows: int | None = 16,
    style: str = "fused",
    cache=None,
) -> list[ValidationReport]:
    """The §IV-A cycle over a grid of configurations via :mod:`repro.exec`.

    Returns one :class:`ValidationReport` per config, in input order.
    ``cache`` goes to :func:`repro.exec.run_sweep`.  Sibling tasks
    evaluate through :func:`validate_points_batch` in a single vectorized
    call, byte-identical to per-config :func:`validate_config` (the
    reference ``tests/dse/test_batch_equivalence.py`` pins it against).
    """
    from ..exec import SweepTask, run_sweep

    tasks = [
        SweepTask(
            "maxpolymem.validate",
            validate_config,
            cfg,
            params={"max_rows": max_rows, "style": style},
            batch_fn=validate_points_batch,
        )
        for cfg in configs
    ]
    sweep = run_sweep(tasks, cache=cache)
    return [
        ValidationReport(
            config_label=v["config_label"],
            writes=v["writes"],
            reads=v["reads"],
            mismatches=list(v["mismatches"]),
        )
        for v in sweep.values()
    ]
