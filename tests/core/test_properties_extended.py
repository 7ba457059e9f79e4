"""Hypothesis property tests, round two: regions, reconfiguration, schedule
covers, and the alignment-constrained schemes."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PolyMemConfig
from repro.core.conflict import is_conflict_free
from repro.core.patterns import AccessPattern, PatternKind
from repro.core.polymem import PolyMem
from repro.core.regions import RegionMap
from repro.core.schemes import Scheme
from repro.schedule import build_cover_problem, greedy_cover, random_trace, solve_cover


# -- regions ------------------------------------------------------------------


@st.composite
def region_requests(draw):
    n = draw(st.integers(1, 6))
    return [
        (
            f"r{k}",
            draw(st.integers(1, 6)),
            draw(st.integers(1, 16)),
        )
        for k in range(n)
    ]


@given(region_requests())
@settings(max_examples=50)
def test_region_allocation_never_overlaps(requests):
    from repro.core.exceptions import CapacityError

    pm = PolyMem(PolyMemConfig(4 * 1024, p=2, q=4, scheme=Scheme.ReRo))
    rm = RegionMap(pm)
    for name, rows, cols in requests:
        try:
            rm.allocate(name, rows, cols)
        except CapacityError:
            break
    assert rm.overlaps() == []
    for region in rm.regions.values():
        assert region.origin_i % 2 == 0 and region.origin_j % 4 == 0
        assert region.origin_i + region.rows <= pm.rows
        assert region.origin_j + region.cols <= pm.cols


@given(st.integers(0, 2**32), st.integers(0, 2**32))
@settings(max_examples=25)
def test_region_isolation(seed_a, seed_b):
    """Writing one region never disturbs another."""
    pm = PolyMem(PolyMemConfig(4 * 1024, p=2, q=4, scheme=Scheme.ReRo))
    rm = RegionMap(pm)
    a = rm.allocate("a", 4, 8)
    b = rm.allocate("b", 4, 8)
    data_a = (np.arange(32, dtype=np.uint64) + seed_a).reshape(4, 8)
    data_b = (np.arange(32, dtype=np.uint64) + seed_b).reshape(4, 8)
    a.store(data_a)
    b.store(data_b)
    a.store(data_b)  # overwrite a again
    assert (b.load() == data_b).all()
    assert (a.load() == data_b).all()


# -- reconfiguration ------------------------------------------------------------


# -- alignment-constrained schemes ------------------------------------------------


@given(st.integers(0, 63), st.integers(0, 63))
def test_roco_rectangle_alignment_rule(i, j):
    """RoCo rectangles: conflict-free iff i % p == 0 or j % q == 0 (2x4)."""
    expected = (i % 2 == 0) or (j % 4 == 0)
    assert is_conflict_free(Scheme.RoCo, PatternKind.RECTANGLE, i, j, 2, 4) == expected


@given(st.integers(0, 63), st.integers(0, 63))
def test_retr_any_anchor_rule(i, j):
    for kind in (PatternKind.RECTANGLE, PatternKind.TRANSPOSED_RECTANGLE):
        assert is_conflict_free(Scheme.ReTr, kind, i, j, 2, 4)


# -- set covers -------------------------------------------------------------------


@given(st.integers(0, 1000), st.floats(0.15, 0.6))
@settings(max_examples=20, deadline=None)
def test_cover_solutions_are_valid_and_ordered(seed, density):
    trace = random_trace(8, 8, density=density, seed=seed)
    prob = build_cover_problem(trace, Scheme.ReRo, 2, 4)
    greedy = greedy_cover(prob)
    exact = solve_cover(prob, node_budget=50_000)
    for chosen in (greedy, list(exact.chosen)):
        covered = 0
        for k in chosen:
            covered |= prob.masks[k]
        assert covered == prob.universe
    assert exact.n_accesses <= len(greedy)
    # lower bound: can't do better than ceil(cells / lanes)
    assert exact.n_accesses >= -(-len(trace) // 8)


@given(st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_cover_candidates_are_conflict_free(seed):
    trace = random_trace(8, 8, density=0.3, seed=seed)
    prob = build_cover_problem(trace, Scheme.RoCo, 2, 4)
    for cand in prob.candidates:
        assert is_conflict_free(Scheme.RoCo, cand.kind, cand.i, cand.j, 2, 4)


# -- patterns: every pattern's cells are distinct --------------------------------------


@given(
    st.sampled_from(list(PatternKind)),
    st.integers(1, 4),
    st.integers(1, 8),
    st.integers(0, 100),
    st.integers(100, 200),
)
def test_pattern_cells_distinct(kind, p, q, i, j):
    pat = AccessPattern(kind, p, q)
    cells = pat.cover_cells(i, j)
    assert len(cells) == p * q
