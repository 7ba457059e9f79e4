"""Unit tests for dataflow streams."""

import copy
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import SimulationError
from repro.maxeler.stream import Stream
from repro.stream_bench.apps import Mode
from repro.stream_bench.controller import Job


class TestStream:
    def test_fifo_order(self):
        s = Stream("s")
        for v in (1, 2, 3):
            s.push(v)
        assert [s.pop(), s.pop(), s.pop()] == [1, 2, 3]

    def test_capacity_and_backpressure(self):
        s = Stream("s", capacity=2)
        s.push(1)
        assert s.can_push()
        s.push(2)
        assert s.full and not s.can_push()
        with pytest.raises(SimulationError, match="overflow"):
            s.push(3)

    def test_underflow(self):
        s = Stream("s")
        with pytest.raises(SimulationError, match="underflow"):
            s.pop()

    def test_peek(self):
        s = Stream("s")
        s.push(42)
        assert s.peek() == 42
        assert len(s) == 1
        with pytest.raises(SimulationError):
            Stream("t").peek()

    def test_unbounded(self):
        s = Stream("s", capacity=None)
        for v in range(1000):
            s.push(v)
        assert not s.full and s.can_push()

    def test_drain(self):
        s = Stream("s")
        for v in range(5):
            s.push(v)
        assert s.drain().tolist() == [0, 1, 2, 3, 4]
        assert s.empty

    def test_counters(self):
        s = Stream("s")
        s.push(1)
        s.push(2)
        s.pop()
        s.drain()
        assert s.total_pushed == 2 and s.total_popped == 2

    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            Stream("s", capacity=0)


# -- model check: the typed slots against a deque ------------------------

LANES = 4

#: element kinds a stream carries: Fig. 9's lane vectors, select tokens,
#: host jobs, and a mix of all three (which turns the slots into objects;
#: each of its blocks is of one kind, so typed blocks meet object slots)
KINDS = ("rows", "ints", "jobs", "mixed")


def _element(kind: str, k: int):
    if kind == "mixed":
        kind = KINDS[k % 3]
    if kind == "rows":
        return np.arange(k, k + LANES, dtype=np.uint64)
    if kind == "ints":
        return k
    return Job(Mode.COPY, k)


def _block(kind: str, start: int, n: int):
    """*n* consecutive elements in the form a producer pushes them: typed
    blocks for lane vectors and tokens, a list for anything else."""
    if kind == "rows":
        return np.arange(start, start + n, dtype=np.uint64)[:, None] + np.arange(
            LANES, dtype=np.uint64
        )
    if kind == "ints":
        return np.arange(start, start + n, dtype=np.int64)
    return [_element(kind, k) for k in range(start, start + n)]


def _same(got, want) -> bool:
    if isinstance(got, np.ndarray) or isinstance(want, np.ndarray):
        return np.array_equal(got, want)
    return got == want


OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["push", "push_many", "pop", "pop_many", "peek_many", "lift", "restore"]
        ),
        st.integers(0, 24),
    ),
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    capacity=st.sampled_from([None, 1, 3, 8]),
    ops=OPS,
)
def test_stream_matches_deque_model(kind, capacity, ops):
    """Random interleavings of the scalar and bulk APIs return the
    elements a deque returns, in order, across moves to fresh slots at the
    end of the array, growth, shrinking after a drain and the simulator's
    transit-edge lift (``capacity = None`` for a chunk); an array returned
    by ``pop_many`` never changes afterwards."""
    s = Stream("s", capacity=capacity)
    model: deque = deque()
    cap = capacity
    nxt = 0
    held = []  # (array returned by pop_many, its contents at return)
    for op, n in ops:
        if op == "lift":
            s.capacity = cap = None
        elif op == "restore":
            s.capacity = cap = capacity
        elif op == "push":
            if cap is not None and len(model) >= cap:
                with pytest.raises(SimulationError, match="overflow"):
                    s.push(_element(kind, nxt))
            else:
                s.push(_element(kind, nxt))
                model.append(_element(kind, nxt))
            nxt += 1
        elif op == "push_many":
            of = KINDS[nxt % 3] if kind == "mixed" else kind
            block = _block(of, nxt, n)
            if cap is not None and len(model) + n > cap and n:
                with pytest.raises(SimulationError, match="overflow"):
                    s.push_many(block)
            else:
                s.push_many(block)
                model.extend(_element(of, k) for k in range(nxt, nxt + n))
            nxt += n
        elif op == "pop":
            if not model:
                with pytest.raises(SimulationError, match="underflow"):
                    s.pop()
            else:
                assert _same(s.pop(), model.popleft())
        elif op == "pop_many":
            if n > len(model):
                with pytest.raises(SimulationError, match="underflow"):
                    s.pop_many(n)
            else:
                out = s.pop_many(n)
                assert len(out) == n
                for got in out:
                    assert _same(got, model.popleft())
                held.append((out, copy.deepcopy(out)))
        else:
            out = s.peek_many(n)
            assert len(out) == min(n, len(model))
            for got, want in zip(out, model):
                assert _same(got, want)
        assert len(s) == len(model)
        assert s.total_pushed - s.total_popped == len(model)
    for got, want in zip(s.drain(), model):
        assert _same(got, want)
    assert s.empty
    for out, snapshot in held:
        assert all(_same(a, b) for a, b in zip(out, snapshot))
