"""Tests for the repro.exec sweep runtime: one compute call per sweep,
one cache entry per sweep, deterministic ordering, and no cache key on an
uncached run."""

import pytest

from repro.dse import explore
from repro.exec import ResultCache, run_sweep
from repro.exec import runtime
from repro.experiments import run_scorecard


def square(config, offset=0):
    """Toy per-config function: config is a plain int here."""
    return {"square": config * config + offset}


def square_each(configs, offset=0):
    """A per-config map over :func:`square`."""
    return [square(c, offset) for c in configs]


def square_batch(configs, offset=0):
    """Vectorized twin of :func:`square_each`."""
    return [{"square": c * c + offset} for c in configs]


def square_batch_short(configs, offset=0):
    return square_batch(configs, offset)[:-1]


def boom(configs):
    raise ValueError(f"boom on {configs[-1]}")


def _sweep(n, offset=0, compute=square_each, cache=None):
    return run_sweep(
        "test.square", range(n), compute, params={"offset": offset}, cache=cache
    )


class TestRunSweep:
    def test_serial_order_and_values(self):
        sweep = _sweep(6)
        assert sweep.values == [{"square": i * i} for i in range(6)]
        assert not sweep.cached
        assert sweep.wall_seconds >= sweep.compute_seconds >= 0

    def test_results_keep_task_order(self):
        configs = [5, 0, 3, 9, 1]
        sweep = run_sweep("test.square", configs, square_batch)
        assert sweep.values == [square(c) for c in configs]

    def test_cache_hits_skip_computation(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = _sweep(8, cache=cache)
        assert not cold.cached
        warm = _sweep(8, compute=boom, cache=cache)  # a hit never computes
        assert warm.cached and warm.compute_seconds == 0.0
        assert warm.values == cold.values
        assert [p.name for p in (tmp_path / "cache").iterdir()] == [
            f"{runtime.cache_key('test.square', range(8), {'offset': 0})}.json"
        ]

    def test_param_change_misses_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        _sweep(5, cache=cache)
        changed = _sweep(5, offset=1, cache=cache)
        assert not changed.cached
        assert changed.values == [{"square": i * i + 1} for i in range(5)]

    def test_worker_exception_propagates_serial(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(ValueError, match="boom on 3"):
            run_sweep("test.boom", range(4), boom, cache=cache)
        assert not (tmp_path / "cache").exists()  # a failed sweep caches nothing

    def test_uncached_sweep_computes_no_key(self, monkeypatch):
        def no_key(*args, **kwargs):
            raise AssertionError("cache_key called without a cache")

        monkeypatch.setattr(runtime, "cache_key", no_key)
        assert _sweep(4).values == square_each(range(4))
        assert explore().sweep.values


class TestTableIIIEquivalence:
    """The cached Table III sweep is byte-identical to the computed one."""

    def test_cached_sweep_equals_computed(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = explore(cache=cache)
        warm = explore(cache=cache)
        assert warm.sweep.cached and not cold.sweep.cached
        assert warm.sweep.values == cold.sweep.values
        assert warm.points == cold.points


class TestScorecardCache:
    def test_cold_then_warm_scorecard(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = run_scorecard(cache=cache).report
        warm = run_scorecard(cache=cache).report
        assert cold.meta["sweep_cached"] == 0
        assert warm.meta["sweep_cached"] == warm.meta["sweep_points"]
        assert warm.meta["sweep_points"] == cold.meta["sweep_points"]
        assert warm.entries == cold.entries
        # the Table III sweep and the §IV-A grid: one entry each
        assert len(list((tmp_path / "cache").iterdir())) == 2


class TestBatchDispatch:
    def test_serial_batch_matches_scalar(self):
        scalar = _sweep(7, offset=3)
        batched = _sweep(7, offset=3, compute=square_batch)
        assert batched.values == scalar.values

    def test_batch_fn_not_in_cache_key(self, tmp_path):
        """The compute function is not part of the key: a sweep computed
        per config is a hit for the vectorized compute."""
        cache = ResultCache(tmp_path / "cache")
        cold = _sweep(5, cache=cache)
        warm = _sweep(5, compute=square_batch, cache=cache)
        assert warm.cached
        assert warm.values == cold.values

    def test_payload_count_mismatch_raises(self):
        with pytest.raises(RuntimeError, match="payloads"):
            _sweep(4, compute=square_batch_short)
