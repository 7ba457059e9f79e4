"""Tests for the batched access-plan table builder (compile_plan_batch).

The builder must produce plans bit-identical to scalar ``compile_plan``
(every table, every dtype), share the residue-table core across
geometries, and feed the shared LRU so later scalar callers get the
*same* objects without recompiling.
"""

import pytest

from repro.core import plan as plan_mod
from repro.core.patterns import PatternKind
from repro.core.plan import compile_plan, compile_plan_batch, plan_cache_stats
from repro.core.schemes import Scheme

# geometries obscure enough that only this module compiles them
GEOMETRIES = [(48, 96), (96, 48), (144, 96)]
GRIDS = [(2, 4), (4, 2)]
KINDS = [PatternKind.RECTANGLE, PatternKind.ROW, PatternKind.COLUMN]

ARRAY_FIELDS = [
    "di", "dj", "bank_table", "lane_of_bank", "ok", "addr_delta",
    "slot_delta",
]
SCALAR_FIELDS = [
    "rows", "cols", "p", "q", "scheme", "kind", "stride", "i_lo", "i_hi",
    "j_lo", "j_hi", "period", "blocks_per_row", "bank_depth",
]


def _keys():
    return [
        (rows, cols, p, q, scheme, kind, 1)
        for rows, cols in GEOMETRIES
        for p, q in GRIDS
        for scheme in Scheme
        for kind in KINDS
    ]


def _assert_plan_equal(a, b):
    for f in SCALAR_FIELDS:
        assert getattr(a, f) == getattr(b, f), f
    for f in ARRAY_FIELDS:
        x, y = getattr(a, f), getattr(b, f)
        assert x.dtype == y.dtype, f
        assert x.shape == y.shape, f
        assert (x == y).all(), f


class TestCompilePlanBatch:
    def test_bit_identical_to_scalar(self):
        keys = _keys()
        batch = compile_plan_batch(keys)
        for key in keys:
            _assert_plan_equal(batch[key], compile_plan(*key))

    def test_scalar_callers_get_the_batch_built_object(self):
        key = (48, 96, 2, 4, Scheme.ReCo, PatternKind.ROW, 1)
        built = compile_plan_batch([key])[key]
        assert compile_plan(*key) is built

    def test_miss_accounting_counts_each_family_once(self):
        fresh = [
            (160, 96, 2, 4, scheme, kind, 1)
            for scheme in (Scheme.ReO, Scheme.RoCo)
            for kind in KINDS
        ]
        before = plan_cache_stats()["misses"]
        compile_plan_batch(fresh)
        after_batch = plan_cache_stats()["misses"]
        assert after_batch - before == len(fresh)
        # scalar re-requests are pure hits now
        for key in fresh:
            compile_plan(*key)
        assert plan_cache_stats()["misses"] == after_batch

    def test_duplicate_and_default_stride_keys(self):
        key6 = (48, 96, 2, 4, Scheme.ReRo, PatternKind.RECTANGLE)
        key7 = key6 + (1,)
        out = compile_plan_batch([key6, key7, key7])
        assert out[key7] is compile_plan(*key7)

    def test_tables_are_readonly(self):
        key = (96, 48, 4, 2, Scheme.ReTr, PatternKind.COLUMN, 1)
        built = compile_plan_batch([key])[key]
        for f in ("bank_table", "lane_of_bank", "ok", "slot_delta"):
            with pytest.raises(ValueError):
                getattr(built, f)[0] = 0

    def test_conflict_semantics_match(self, rng):
        """Spot-check the behavioural surface, not just the tables."""
        keys = _keys()[::5]
        batch = compile_plan_batch(keys)
        ai = rng.integers(0, 200, size=16)
        aj = rng.integers(0, 200, size=16)
        for key in keys:
            fresh = plan_mod.compile_plan.__wrapped__(*key)
            got = batch[key]
            assert (got.fits_mask(ai, aj) == fresh.fits_mask(ai, aj)).all()
            assert (got.ok_mask(ai % (got.period * 2), aj) ==
                    fresh.ok_mask(ai % (fresh.period * 2), aj)).all()

    def test_empty_input(self):
        assert compile_plan_batch([]) == {}
