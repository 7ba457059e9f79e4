"""The burst-friendly layout pass and its effect on DRAM bandwidth."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import AddressStream, get_backend, plan_layout
from repro.core.config import KB, PolyMemConfig
from repro.core.exceptions import AddressError
from repro.core.schemes import Scheme


def cfg():
    return PolyMemConfig(512 * KB, p=2, q=4, scheme=Scheme.ReRo)


class TestPermutation:
    def test_strided_stream_becomes_sequential(self):
        stream = AddressStream.strided(256, stride=64)
        remapped = plan_layout(stream).remap(stream)
        np.testing.assert_array_equal(
            remapped.addresses, np.arange(256, dtype=np.int64)
        )

    def test_repeated_touches_share_one_slot(self):
        stream = AddressStream(np.array([40, 10, 40, 10, 20]))
        layout = plan_layout(stream)
        assert layout.touched_words == 3
        np.testing.assert_array_equal(
            layout.remap(stream).addresses, [0, 1, 0, 1, 2]
        )

    def test_untouched_words_pack_after_in_address_order(self):
        stream = AddressStream(np.array([3, 1]))
        layout = plan_layout(stream, n_words=6)
        # touched: 3 -> 0, 1 -> 1; untouched 0, 2, 4, 5 -> 2, 3, 4, 5
        np.testing.assert_array_equal(layout.new_of_old, [2, 1, 3, 0, 4, 5])

    def test_apply_restore_roundtrip(self):
        stream = AddressStream.strided(128, stride=32)
        layout = plan_layout(stream)
        data = np.random.default_rng(3).integers(0, 1 << 30, layout.n_words)
        transformed = layout.apply(data)
        np.testing.assert_array_equal(layout.restore(transformed), data)

    def test_apply_places_words_in_touch_order(self):
        """The k-th distinct word the stream touches lands at offset k."""
        stream = AddressStream.strided(16, stride=8)
        layout = plan_layout(stream)
        data = np.arange(layout.n_words, dtype=np.int64)
        transformed = layout.apply(data)
        np.testing.assert_array_equal(
            transformed[:16], stream.addresses[:16]
        )

    def test_remap_out_of_range_raises(self):
        layout = plan_layout(AddressStream(np.array([0, 1, 2])))
        with pytest.raises(AddressError):
            layout.remap(AddressStream(np.array([5])))

    def test_plan_shorter_than_stream_raises(self):
        with pytest.raises(AddressError):
            plan_layout(AddressStream(np.array([10])), n_words=4)

    def test_apply_size_mismatch_raises(self):
        layout = plan_layout(AddressStream.sequential(8))
        with pytest.raises(AddressError):
            layout.apply(np.zeros(9))


def dense_new_of_old(addrs: np.ndarray, n_words: int) -> np.ndarray:
    """Reference plan: a table over the whole array, filled in first-touch
    order, then with the untouched words in address order."""
    unique, first_pos = np.unique(addrs, return_index=True)
    order = unique[np.argsort(first_pos, kind="stable")]
    new_of_old = np.full(n_words, -1, dtype=np.int64)
    new_of_old[order] = np.arange(order.size, dtype=np.int64)
    untouched = np.flatnonzero(new_of_old < 0)
    new_of_old[untouched] = np.arange(
        order.size, order.size + untouched.size, dtype=np.int64
    )
    return new_of_old


@st.composite
def planned_streams(draw):
    """(planning addresses, the ``n_words`` argument (None: the span),
    the array's word count, addresses of a second stream)."""
    addrs = np.array(
        draw(st.lists(st.integers(0, 63), max_size=48)), dtype=np.int64
    )
    span = int(addrs.max()) + 1 if addrs.size else 0
    extra = draw(st.none() | st.integers(0, 16))
    n = span + (extra or 0)
    other = draw(
        st.lists(st.integers(0, n - 1), max_size=48) if n else st.just([])
    )
    n_words = None if extra is None else n
    return addrs, n_words, n, np.array(other, dtype=np.int64)


class TestAgainstDenseTable:
    @settings(max_examples=200, deadline=None)
    @given(planned_streams())
    def test_matches_dense_table(self, case):
        addrs, n_words, n, other = case
        layout = plan_layout(AddressStream(addrs), n_words=n_words)
        oracle = dense_new_of_old(addrs, n)
        assert layout.n_words == n
        assert layout.touched_words == len(set(addrs.tolist()))
        np.testing.assert_array_equal(layout.new_of_old, oracle)
        np.testing.assert_array_equal(
            layout.remap(AddressStream(addrs)).addresses, oracle[addrs]
        )
        np.testing.assert_array_equal(
            layout.remap(AddressStream(other)).addresses, oracle[other]
        )
        data = np.arange(100, 100 + n, dtype=np.int64)
        expected = np.empty_like(data)
        expected[oracle] = data
        np.testing.assert_array_equal(layout.apply(data), expected)
        np.testing.assert_array_equal(layout.restore(data), data[oracle])

    def test_memory_follows_touched_words(self):
        """A stride-1024 walk of 2**14 words spans 2**24 words; a plan
        sized by the span would hold a 128 MB table."""
        stream = AddressStream.strided(1 << 14, stride=1024)
        tracemalloc.start()
        try:
            plan_layout(stream).remap(stream)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20


class TestDramGain:
    @pytest.mark.parametrize("backend", ["dram", "hbm2"])
    def test_layout_recovers_strided_bandwidth(self, backend):
        """ISSUE acceptance: >= 1.5x achieved bandwidth on the strided
        workload once the layout pass has run (it is far more in practice:
        the remapped stream is exactly sequential)."""
        be = get_backend(backend)
        stream = AddressStream.strided(1 << 14, stride=64)
        raw = be.achieved_bandwidth(cfg(), stream)
        laid = be.achieved_bandwidth(cfg(), plan_layout(stream).remap(stream))
        assert laid.achieved_gbps >= 1.5 * raw.achieved_gbps
        assert laid.transferred_bytes <= raw.transferred_bytes
