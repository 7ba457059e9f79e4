"""Conflict-freedom tests: the exhaustive reproduction of paper Table I."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conflict import (
    ConflictAnalyzer,
    conflict_banks,
    is_conflict_free,
)
from repro.core.exceptions import SchemeError
from repro.core.patterns import PatternKind, kinds_in_table_order
from repro.core.schemes import Scheme, validate_lane_grid


class TestIsConflictFree:
    def test_reo_rectangle_everywhere(self):
        for i in range(8):
            for j in range(8):
                assert is_conflict_free(Scheme.ReO, PatternKind.RECTANGLE, i, j, 2, 4)

    def test_reo_row_conflicts(self):
        assert not is_conflict_free(Scheme.ReO, PatternKind.ROW, 0, 0, 2, 4)

    def test_conflict_banks_empty_when_free(self):
        assert conflict_banks(Scheme.ReRo, PatternKind.ROW, 3, 5, 2, 4) == []

    def test_conflict_banks_lists_clashes(self):
        clashes = conflict_banks(Scheme.ReO, PatternKind.ROW, 0, 0, 2, 4)
        assert clashes  # row hits bank row 0 only -> q banks hit p times
        assert all(0 <= b < 8 for b in clashes)

    def test_roco_rectangle_alignment(self):
        assert is_conflict_free(Scheme.RoCo, PatternKind.RECTANGLE, 0, 3, 2, 4)
        assert is_conflict_free(Scheme.RoCo, PatternKind.RECTANGLE, 2, 5, 2, 4)
        assert not is_conflict_free(Scheme.RoCo, PatternKind.RECTANGLE, 1, 2, 2, 4)

    def test_retr_both_rectangles_anywhere(self):
        for i in range(8):
            for j in range(8):
                assert is_conflict_free(
                    Scheme.ReTr, PatternKind.RECTANGLE, i, j, 2, 4
                )
                assert is_conflict_free(
                    Scheme.ReTr, PatternKind.TRANSPOSED_RECTANGLE, i, j, 2, 4
                )


class TestAnchorDomain:
    def test_any_domain_contains_everything(self):
        an = ConflictAnalyzer(2, 4)
        dom = an.domain(Scheme.ReRo, PatternKind.ROW)
        assert dom.label == "any"
        assert dom.fraction == 1.0
        assert dom.contains(123, 456)

    def test_i_aligned_domain(self):
        an = ConflictAnalyzer(2, 4)
        dom = an.domain(Scheme.RoCo, PatternKind.RECTANGLE)
        assert dom.label == "i_aligned"
        assert dom.contains(0, 3) and dom.contains(4, 1)
        # j-aligned anchors also happen to work for RoCo rectangles
        assert dom.contains(1, 0)
        assert not dom.contains(1, 2)

    def test_none_domain(self):
        an = ConflictAnalyzer(2, 4)
        dom = an.domain(Scheme.ReO, PatternKind.COLUMN)
        assert dom.label == "none"
        assert dom.fraction == 0.0

    def test_domain_periodic_membership(self):
        an = ConflictAnalyzer(2, 4)
        dom = an.domain(Scheme.RoCo, PatternKind.RECTANGLE)
        n = 8
        for i in range(n):
            for j in range(n):
                assert dom.contains(i, j) == dom.contains(i + 5 * n, j + 9 * n)


class TestTableI:
    """The paper's Table I, validated exhaustively per lane grid."""

    @pytest.mark.parametrize("p,q", [(2, 4), (2, 8)])
    def test_paper_lane_grids(self, p, q):
        an = ConflictAnalyzer(p, q)
        tab = an.table()
        labels = {
            (s, k): d.label for s, row in tab.items() for k, d in row.items()
        }
        R, T, Ro, C, M, A = (
            PatternKind.RECTANGLE,
            PatternKind.TRANSPOSED_RECTANGLE,
            PatternKind.ROW,
            PatternKind.COLUMN,
            PatternKind.MAIN_DIAGONAL,
            PatternKind.ANTI_DIAGONAL,
        )
        # ReO: Rectangle only
        assert labels[(Scheme.ReO, R)] == "any"
        assert labels[(Scheme.ReO, Ro)] == "none"
        assert labels[(Scheme.ReO, C)] == "none"
        # ReRo: Rectangle, Row, both diagonals
        assert labels[(Scheme.ReRo, R)] == "any"
        assert labels[(Scheme.ReRo, Ro)] == "any"
        assert labels[(Scheme.ReRo, M)] == "any"
        assert labels[(Scheme.ReRo, A)] == "any"
        assert labels[(Scheme.ReRo, C)] == "none"
        # ReCo: Rectangle, Column, both diagonals
        assert labels[(Scheme.ReCo, R)] == "any"
        assert labels[(Scheme.ReCo, C)] == "any"
        assert labels[(Scheme.ReCo, M)] == "any"
        assert labels[(Scheme.ReCo, A)] == "any"
        assert labels[(Scheme.ReCo, Ro)] == "none"
        # RoCo: Row, Column, Rectangle (row-aligned anchors)
        assert labels[(Scheme.RoCo, Ro)] == "any"
        assert labels[(Scheme.RoCo, C)] == "any"
        assert labels[(Scheme.RoCo, R)] == "i_aligned"
        # ReTr: Rectangle, Transposed Rectangle
        assert labels[(Scheme.ReTr, R)] == "any"
        assert labels[(Scheme.ReTr, T)] == "any"

    @pytest.mark.parametrize("p,q", [(2, 4), (2, 8), (4, 2), (4, 4)])
    def test_static_spec_agrees_with_empirical(self, p, q):
        an = ConflictAnalyzer(p, q)
        for scheme in an.table():
            assert an.verify_spec(scheme) == []

    def test_table_restricts_to_requested_schemes(self):
        an = ConflictAnalyzer(2, 4)
        tab = an.table(schemes=[Scheme.ReO], kinds=[PatternKind.RECTANGLE])
        assert list(tab) == [Scheme.ReO]
        assert list(tab[Scheme.ReO]) == [PatternKind.RECTANGLE]

    def test_retr_skipped_on_invalid_grid(self):
        an = ConflictAnalyzer(3, 5)
        assert Scheme.ReTr not in an.table()


def _scalar_residues(scheme, kind, p, q, stride):
    """The per-anchor reference: one :func:`is_conflict_free` call for
    every anchor of one residue period, at non-negative coordinates."""
    n = p * q
    base_j = n * stride if kind is PatternKind.ANTI_DIAGONAL else 0
    return {
        (i0 % n, j0 % n)
        for i0 in range(n)
        for j0 in range(base_j, base_j + n)
        if is_conflict_free(scheme, kind, i0, j0, p, q, stride)
    }


@settings(max_examples=25, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=4),
    q=st.integers(min_value=1, max_value=4),
    stride=st.integers(min_value=1, max_value=8),
)
def test_plan_domains_equal_scalar_loop(p, q, stride):
    """The plan-derived Table I domains (``domain`` / ``stride_domain``)
    hold exactly the anchor residues the scalar oracle accepts."""
    an = ConflictAnalyzer(p, q)
    for scheme in Scheme:
        try:
            validate_lane_grid(scheme, p, q)
        except SchemeError:
            continue
        for kind in kinds_in_table_order():
            assert an.domain(scheme, kind).ok_residues == _scalar_residues(
                scheme, kind, p, q, 1
            )
            assert an.stride_domain(
                scheme, kind, stride
            ).ok_residues == _scalar_residues(scheme, kind, p, q, stride)
