"""Tests for the Fig. 2 regions API and the shelf allocator."""

import numpy as np
import pytest

from repro.core.config import KB, PolyMemConfig
from repro.core.exceptions import AddressError, CapacityError, PatternError
from repro.core.patterns import PatternKind
from repro.core.polymem import PolyMem
from repro.core.regions import RegionMap
from repro.core.schemes import Scheme


@pytest.fixture
def pm():
    return PolyMem(PolyMemConfig(4 * KB, p=2, q=4, scheme=Scheme.ReRo))


@pytest.fixture
def rm(pm):
    return RegionMap(pm)


class TestAllocation:
    def test_origins_are_block_aligned(self, rm, pm):
        for k in range(4):
            r = rm.allocate(f"r{k}", 3, 5)
            assert r.origin_i % pm.p == 0
            assert r.origin_j % pm.q == 0
            # shapes rounded up to the lane grid
            assert r.rows % pm.p == 0 and r.cols % pm.q == 0

    def test_no_overlaps(self, rm):
        for k in range(6):
            rm.allocate(f"r{k}", 4, 8)
        assert rm.overlaps() == []

    def test_shelf_wraps(self, rm, pm):
        a = rm.allocate("a", 2, pm.cols)      # fills a full shelf
        b = rm.allocate("b", 2, 8)            # must start a new shelf
        assert b.origin_i >= a.origin_i + a.rows

    def test_duplicate_name(self, rm):
        rm.allocate("x", 2, 4)
        with pytest.raises(PatternError, match="already"):
            rm.allocate("x", 2, 4)

    def test_too_wide(self, rm, pm):
        with pytest.raises(CapacityError, match="wider"):
            rm.allocate("w", 2, pm.cols + 1)

    def test_exhaustion(self, rm, pm):
        with pytest.raises(CapacityError, match="exhausted"):
            for k in range(100):
                rm.allocate(f"r{k}", pm.p * 2, pm.cols)

    def test_lookup(self, rm):
        r = rm.allocate("a", 2, 4)
        assert rm["a"] is r
        assert "a" in rm and "b" not in rm

    def test_invalid_shape(self, rm):
        with pytest.raises(PatternError):
            rm.allocate("z", 0, 4)

class TestRegionAccess:
    def test_store_load_roundtrip(self, rm):
        r = rm.allocate("m", 6, 12)
        data = np.arange(r.rows * r.cols, dtype=np.uint64).reshape(r.shape)
        r.store(data)
        assert (r.load() == data).all()

    def test_store_shape_check(self, rm):
        r = rm.allocate("m", 4, 8)
        with pytest.raises(PatternError):
            r.store(np.zeros((3, 3)))

    def test_relative_reads(self, rm):
        r = rm.allocate("m", 4, 16)
        data = np.arange(4 * 16, dtype=np.uint64).reshape(4, 16)
        r.store(data)
        assert (r.read(PatternKind.ROW, 2, 3) == data[2, 3:11]).all()
        got = r.read(PatternKind.RECTANGLE, 1, 5)
        assert (got == data[1:3, 5:9].ravel()).all()

    def test_relative_writes(self, rm):
        r = rm.allocate("m", 4, 16)
        r.store(np.zeros((4, 16), dtype=np.uint64))
        r.write(PatternKind.ROW, 0, 0, np.arange(8))
        assert (r.load()[0, :8] == np.arange(8)).all()

    def test_bounds_check(self, rm):
        r = rm.allocate("m", 4, 8)
        with pytest.raises(AddressError, match="region"):
            r.read(PatternKind.ROW, 4, 0)

    def test_regions_are_isolated(self, rm):
        a = rm.allocate("a", 4, 8)
        b = rm.allocate("b", 4, 8)
        a.store(np.full((4, 8), 1, dtype=np.uint64))
        b.store(np.full((4, 8), 2, dtype=np.uint64))
        assert (a.load() == 1).all()
        assert (b.load() == 2).all()

    def test_multiview_within_region(self, rm):
        """Fig. 2's point: the same region serves different shapes."""
        r = rm.allocate("m", 8, 8)
        data = np.arange(64, dtype=np.uint64).reshape(8, 8)
        r.store(data)
        diag = r.read(PatternKind.MAIN_DIAGONAL, 0, 0)
        assert (diag == data[np.arange(8), np.arange(8)]).all()
