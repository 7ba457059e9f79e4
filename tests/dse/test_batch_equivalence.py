"""Equivalence suite for the vectorized config-space evaluation.

The batch layer's one contract: every vectorized path — plan-table
builds, conflict chunks, slot-image validation, synthesis estimates, the
whole ``explore`` sweep — produces *byte-identical* results to the scalar
path it replaces.  These tests pin that contract, including the fallback
and error branches, with Hypothesis driving the config/anchor sampling.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import KB, PolyMemConfig
from repro.core.exceptions import ConfigurationError, ConflictError
from repro.core.patterns import PatternKind
from repro.core.plan import compile_plan
from repro.core.schemes import Scheme
from repro.dse.explore import (
    DsePoint,
    DseResult,
    _prune_dominated,
    evaluate_point,
    evaluate_points_batch,
    explore,
)
from repro.dse.pareto import pareto_frontier
from repro.dse.space import PAPER_SPACE, DesignSpace
from repro.exec import SweepTask, run_sweep
from repro.hw.synthesis import default_model
from repro.maxpolymem.validation import (
    conflict_free_chunk,
    validate_config,
    validate_points_batch,
)

ALL_CONFIGS = list(PAPER_SPACE.points())

CHUNK_KINDS = [PatternKind.RECTANGLE, PatternKind.ROW, PatternKind.COLUMN]


def _payload_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _points_json(result) -> str:
    fields = ("paper_mhz", "model_mhz", "logic_pct", "lut_pct", "bram_pct",
              "validated")
    return json.dumps(
        [
            {"label": p.config.label(), **{f: getattr(p, f) for f in fields}}
            for p in result.points
        ],
        sort_keys=True,
        separators=(",", ":"),
    )


def _frontier_key(result):
    return [
        (c.label, c.read_gbps, c.bram_pct, c.logic_pct)
        for c in pareto_frontier(result)
    ]


def _scalar_chunk(configs, kind, ai, aj, *, policy="allow"):
    """The per-anchor reference ``conflict_free_chunk`` is pinned to."""
    out = np.empty((len(configs), ai.size), dtype=bool)
    for n, cfg in enumerate(configs):
        plan = compile_plan(cfg.rows, cfg.cols, cfg.p, cfg.q, cfg.scheme, kind)
        for b in range(ai.size):
            i, j = int(ai[b]), int(aj[b])
            out[n, b] = plan.fits(i, j) and plan.conflict_free(i, j)
            if policy == "forbid" and not out[n, b]:
                raise ConflictError(
                    f"{cfg.label()}: {kind.value} access at ({i}, {j}) is "
                    f"out of bounds or bank-conflicting"
                )
    return out


def _scalar_explore(space=PAPER_SPACE, *, prune=False, **params):
    """``explore()`` on the per-point reference: the same ``dse.point``
    sweep with no ``batch_fn``, so every point runs ``evaluate_point``."""
    cfgs = list(space.points(feasible_only=True))
    if prune:
        cfgs, _ = _prune_dominated(cfgs, default_model(space.device.name))
    params = {"validate": False, "validate_rows": 16, **params,
              "device": space.device.name}
    sweep = run_sweep(
        [SweepTask("dse.point", evaluate_point, cfg, params=params)
         for cfg in cfgs]
    )
    assert sweep.batched_points == 0
    points = [DsePoint(config=cfg, **v) for cfg, v in zip(cfgs, sweep.values())]
    return DseResult(space=space, points=points, sweep=sweep)


class TestConflictFreeChunk:
    @settings(max_examples=25, deadline=None)
    @given(
        start=st.integers(min_value=0, max_value=len(ALL_CONFIGS) - 1),
        step=st.integers(min_value=1, max_value=17),
        kind=st.sampled_from(CHUNK_KINDS),
        anchors=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=300),
                st.integers(min_value=0, max_value=300),
            ),
            min_size=1,
            max_size=24,
        ),
    )
    def test_vectorized_matches_scalar(self, start, step, kind, anchors):
        configs = ALL_CONFIGS[start::step]
        ai = np.array([a for a, _ in anchors], dtype=np.int64)
        aj = np.array([b for _, b in anchors], dtype=np.int64)
        fast = conflict_free_chunk(configs, kind, ai, aj)
        slow = _scalar_chunk(configs, kind, ai, aj)
        assert fast.dtype == slow.dtype == np.dtype(bool)
        assert (fast == slow).all()

    @pytest.mark.parametrize("kind", CHUNK_KINDS)
    def test_forbid_policy_error_parity(self, kind):
        """The fast path raises the reference's ConflictError for the
        same first failure (config-major order)."""
        rng = np.random.default_rng(7)
        configs = ALL_CONFIGS[::9]
        ai = rng.integers(0, 64, size=32)
        aj = rng.integers(0, 64, size=32)
        messages = []
        for chunk in (conflict_free_chunk, _scalar_chunk):
            try:
                chunk(configs, kind, ai, aj, policy="forbid")
                messages.append(None)
            except ConflictError as err:
                messages.append(str(err))
        assert messages[0] == messages[1]
        # the sampled chunk must actually exercise the raising branch for
        # at least one kind (column accesses conflict under most schemes)
        if kind is PatternKind.COLUMN:
            assert messages[0] is not None

    def test_forbid_all_clean_returns_mask(self):
        cfg = PolyMemConfig(64 * KB, p=2, q=4, scheme=Scheme.ReRo)
        out = conflict_free_chunk(
            [cfg],
            PatternKind.RECTANGLE,
            np.array([0, 2]),
            np.array([0, 4]),
            policy="forbid",
        )
        assert out.all()

    def test_unknown_policy_rejected(self):
        cfg = PolyMemConfig(64 * KB, p=2, q=4, scheme=Scheme.ReRo)
        with pytest.raises(ValueError, match="policy"):
            conflict_free_chunk(
                [cfg], PatternKind.ROW, np.array([0]), np.array([0]),
                policy="maybe",
            )


class TestValidatePointsBatch:
    @settings(max_examples=8, deadline=None)
    @given(
        start=st.integers(min_value=0, max_value=len(ALL_CONFIGS) - 1),
        step=st.integers(min_value=7, max_value=23),
        max_rows=st.sampled_from([8, 16]),
    )
    def test_payload_parity(self, start, step, max_rows):
        configs = ALL_CONFIGS[start::step]
        batch = validate_points_batch(configs, max_rows=max_rows)
        scalar = [validate_config(cfg, max_rows) for cfg in configs]
        assert [_payload_json(b) for b in batch] == [
            _payload_json(s) for s in scalar
        ]

    def test_misaligned_region_falls_back_bit_identical(self):
        """max_rows not divisible by p forces the scalar fallback — and
        the scalar cycle rejects the misaligned region, so the batch path
        must surface the identical error."""
        configs = ALL_CONFIGS[:1]
        outcomes = []
        for run in (
            lambda: validate_points_batch(configs, max_rows=15),
            lambda: [validate_config(cfg, 15) for cfg in configs],
        ):
            try:
                outcomes.append(("ok", run()))
            except ConfigurationError as err:
                outcomes.append(("error", str(err)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == "error"

    @pytest.mark.parametrize("max_rows", [3, 0, -4])
    def test_bad_region_is_a_configuration_error(self, max_rows):
        """A validated region that is not a positive whole number of
        p-row blocks is rejected up front, on the batch path and through
        a validated explore alike."""
        cfg = PolyMemConfig(16 * KB, p=2, q=4, scheme=Scheme.ReRo)
        match = "not a positive multiple of p=2"
        with pytest.raises(ConfigurationError, match=match):
            validate_points_batch([cfg], max_rows=max_rows)
        space = DesignSpace(
            capacities_kb=(16,), lane_counts=(8,), read_ports=(1,),
            schemes=(Scheme.ReRo,),
        )
        with pytest.raises(ConfigurationError, match=match):
            explore(space, validate=True, validate_rows=max_rows)

    def test_port_siblings_share_one_pass(self):
        """Read-port count only scales the report's read counter."""
        base = dict(p=2, q=4, scheme=Scheme.ReRo)
        cfgs = [
            PolyMemConfig(512 * KB, read_ports=r, **base) for r in (1, 2, 3)
        ]
        payloads = validate_points_batch(cfgs, max_rows=16)
        per_port = payloads[0]["reads"]
        assert [p["reads"] for p in payloads] == [
            per_port, 2 * per_port, 3 * per_port
        ]
        assert all(p["passed"] for p in payloads)


class TestEvaluateBatchParity:
    def test_full_space_payloads(self):
        device = PAPER_SPACE.device.name
        batch = evaluate_points_batch(ALL_CONFIGS, device=device)
        scalar = [evaluate_point(cfg, device=device) for cfg in ALL_CONFIGS]
        assert [_payload_json(b) for b in batch] == [
            _payload_json(s) for s in scalar
        ]

    def test_validated_payloads(self):
        device = PAPER_SPACE.device.name
        configs = ALL_CONFIGS[::11]
        batch = evaluate_points_batch(
            configs, validate=True, validate_rows=8, device=device
        )
        scalar = [
            evaluate_point(cfg, validate=True, validate_rows=8, device=device)
            for cfg in configs
        ]
        assert [_payload_json(b) for b in batch] == [
            _payload_json(s) for s in scalar
        ]


class TestExploreEquivalence:
    @pytest.fixture(scope="class")
    def scalar_result(self):
        return _scalar_explore()

    def test_fast_path_points_identical(self, scalar_result):
        assert _points_json(explore()) == _points_json(scalar_result)

    def test_sweep_path_points_identical(self, scalar_result):
        batched = explore()
        assert _points_json(batched) == _points_json(scalar_result)
        assert batched.sweep.batched_points == len(batched.points)
        assert batched.sweep.batch_calls >= 1

    def test_fast_path_sweep_accounting(self):
        result = explore()
        assert result.sweep is not None
        assert result.sweep.n_cached == 0
        assert result.sweep.n_computed == len(result.points)
        assert result.sweep.batched_points == len(result.points)
        # the whole default grid is one dispatch group: one batch_fn call
        assert result.sweep.batch_calls == 1

    def test_payload_json_matches_scalar_sweep(self, scalar_result):
        """Cache keys and payloads — not just the points — are identical,
        so batched and scalar runs share cache entries."""
        assert (
            explore().sweep.payload_json()
            == scalar_result.sweep.payload_json()
        )

    def test_validated_small_space(self):
        space = DesignSpace(
            capacities_kb=(512,),
            lane_counts=(8,),
            read_ports=(1, 2),
            schemes=(Scheme.ReRo, Scheme.ReTr),
        )
        kwargs = dict(space=space, validate=True, validate_rows=8)
        assert _points_json(explore(**kwargs)) == _points_json(
            _scalar_explore(**kwargs)
        )

    @settings(max_examples=6, deadline=None)
    @given(
        capacities=st.sets(
            st.sampled_from([512, 1024, 2048]), min_size=1, max_size=2
        ),
        lanes=st.sets(st.sampled_from([8, 16]), min_size=1),
        ports=st.sets(st.sampled_from([1, 2, 3]), min_size=1, max_size=2),
        schemes=st.sets(st.sampled_from(list(Scheme)), min_size=1, max_size=3),
    )
    def test_arbitrary_spaces(self, capacities, lanes, ports, schemes):
        space = DesignSpace(
            capacities_kb=tuple(sorted(capacities)),
            lane_counts=tuple(sorted(lanes)),
            read_ports=tuple(sorted(ports)),
            schemes=tuple(sorted(schemes, key=lambda s: s.value)),
        )
        assert _points_json(explore(space=space)) == _points_json(
            _scalar_explore(space)
        )


class TestPruning:
    @pytest.fixture(scope="class")
    def full(self):
        return explore()

    @pytest.fixture(scope="class")
    def pruned(self):
        return explore(prune=True)

    def test_frontier_exact(self, full, pruned):
        assert _frontier_key(full) == _frontier_key(pruned)

    def test_points_are_subset(self, full, pruned):
        full_labels = {p.config.label() for p in full.points}
        pruned_labels = {p.config.label() for p in pruned.points}
        assert pruned_labels < full_labels

    def test_survivor_payloads_identical(self, full, pruned):
        by_label = {p.config.label(): p for p in full.points}
        for p in pruned.points:
            q = by_label[p.config.label()]
            assert (p.paper_mhz, p.model_mhz, p.logic_pct, p.lut_pct,
                    p.bram_pct) == (q.paper_mhz, q.model_mhz, q.logic_pct,
                                    q.lut_pct, q.bram_pct)

    def test_frontier_exact_scalar_path_too(self, full):
        assert _frontier_key(_scalar_explore(prune=True)) == _frontier_key(
            full
        )


class TestBatchTelemetry:
    def test_counters_emitted(self):
        from repro.telemetry import Telemetry, session

        with session(Telemetry(label="test")) as tel:
            explore(prune=True)
            snap = tel.snapshot()
        c = snap["metrics"]["counters"]
        assert c["dse.batch.candidates"] == len(ALL_CONFIGS)
        assert c["dse.batch.pruned"] > 0
        assert c["dse.batch.configs"] == (
            len(ALL_CONFIGS) - c["dse.batch.pruned"]
        )
        assert c["dse.batch.passes"] == 1
