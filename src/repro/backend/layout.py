"""Burst-friendly layout transformation for host arrays.

The DRAM channel model (:mod:`repro.backend.dram`) punishes streams that
touch one word per burst granule.  Most such streams are *regular* — a
fixed stride, a tile walk — so the words they touch can simply be stored
in the order they will be read (arXiv 2202.05933's burst-friendly layout):
the host reorders the array once, cheaply, before the DMA transfer, and
the device-visible stream becomes sequential.

:func:`plan_layout` derives that permutation from an address stream (the
first-touch order of every word), :meth:`BurstLayout.apply` reorders a
host array to match, and :meth:`BurstLayout.remap` rewrites the stream
into the transformed address space.  ``remap(plan(s), s)`` of any
fixed-stride stream is exactly sequential.

The plan stores only the words the stream touches, so its cost follows
the stream, not the array it walks: for a stream of ``m`` addresses
touching ``t`` distinct words of an ``n``-word array, planning takes
``O(m log m)`` time and ``O(t)`` memory, and
:meth:`~BurstLayout.remap` takes ``O(m log t)`` time and ``O(m)``
memory.  Only :meth:`~BurstLayout.apply`, :meth:`~BurstLayout.restore`
and :attr:`~BurstLayout.new_of_old` cost ``O(n)``, as reordering a
whole ``n``-word array must.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.exceptions import AddressError
from ..telemetry import context as _telemetry
from .base import AddressStream

__all__ = ["BurstLayout", "plan_layout"]


@dataclass(frozen=True)
class BurstLayout:
    """A word permutation of an ``n_words``-word array, kept sparse.

    ``touched`` holds the distinct words the planning stream touches, in
    address order, and ``rank[i]`` is the first-touch rank of
    ``touched[i]``: that word moves to address ``rank[i]``.  Words the
    stream never touches keep their relative order after all touched
    words, so untouched word ``a`` moves to
    ``touched_words + a - (touched words below a)``.  Nothing of size
    ``n_words`` is stored; :attr:`new_of_old` builds the dense table on
    demand.
    """

    touched: np.ndarray
    rank: np.ndarray
    n_words: int

    @property
    def touched_words(self) -> int:
        return int(self.touched.size)

    @property
    def new_of_old(self) -> np.ndarray:
        """The dense permutation: ``new_of_old[a]`` is the transformed
        address of original word ``a`` (``O(n_words)``, built per call)."""
        return self._moved(np.arange(self.n_words, dtype=np.int64))

    def _moved(self, addrs: np.ndarray) -> np.ndarray:
        """Transformed addresses of in-range original *addrs*."""
        t = self.touched.size
        if t == self.n_words:
            # every word is touched, so ``touched`` is ``arange(n_words)``
            return self.rank[addrs]
        below = np.searchsorted(self.touched, addrs)
        moved = t + addrs - below
        if t:
            at = np.minimum(below, t - 1)
            moved = np.where(self.touched[at] == addrs, self.rank[at], moved)
        return moved

    def remap(self, stream: AddressStream) -> AddressStream:
        """The stream as the device sees it after the transformation."""
        addrs = stream.addresses
        if addrs.size and (addrs.min() < 0 or addrs.max() >= self.n_words):
            raise AddressError(
                f"stream addresses exceed the {self.n_words}-word layout"
            )
        return AddressStream(self._moved(addrs), stream.word_bytes)

    def _check_size(self, flat: np.ndarray) -> None:
        if flat.size != self.n_words:
            raise AddressError(
                f"array holds {flat.size} words, layout covers {self.n_words}"
            )

    def apply(self, host_array: np.ndarray) -> np.ndarray:
        """Reorder a flat host array into the burst-friendly layout."""
        flat = np.ascontiguousarray(host_array).ravel()
        self._check_size(flat)
        out = np.empty_like(flat)
        out[self.new_of_old] = flat
        return out

    def restore(self, transformed: np.ndarray) -> np.ndarray:
        """Invert :meth:`apply` (after offloading results back)."""
        flat = np.ascontiguousarray(transformed).ravel()
        self._check_size(flat)
        return flat[self.new_of_old]


def plan_layout(stream: AddressStream, n_words: int | None = None) -> BurstLayout:
    """Plan the burst-friendly permutation for *stream*.

    Word ``a`` moves to position ``k`` when it is the ``k``-th *distinct*
    word the stream touches; untouched words (of an ``n_words``-word
    array) are packed behind them in address order.
    """
    addrs = stream.addresses
    if addrs.size and addrs.min() < 0:
        raise AddressError("layout planning needs non-negative addresses")
    span = int(addrs.max()) + 1 if addrs.size else 0
    if n_words is None:
        n_words = span
    elif n_words < span:
        raise AddressError(
            f"stream touches word {span - 1}, beyond the {n_words}-word array"
        )
    touched, first_pos = np.unique(addrs, return_index=True)
    rank = np.empty(touched.size, dtype=np.int64)
    rank[np.argsort(first_pos, kind="stable")] = np.arange(
        touched.size, dtype=np.int64
    )
    tel = _telemetry.active()
    if tel is not None:
        metrics = tel.metrics
        metrics.counter("backend.layout.plans").inc()
        metrics.counter("backend.layout.words").inc(int(n_words))
        metrics.counter("backend.layout.touched_words").inc(int(touched.size))
    return BurstLayout(touched=touched, rank=rank, n_words=int(n_words))
