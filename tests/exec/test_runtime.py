"""Tests for the repro.exec sweep runtime: cache lookup, batch dispatch,
deterministic ordering, and group-granular persistence when a task
raises."""

import pytest

from repro.dse import explore
from repro.dse.space import PAPER_SPACE
from repro.exec import ResultCache, SweepTask, run_sweep


def square(config, offset=0):
    """Toy task: config is a plain int here."""
    return {"square": config * config + offset}


def boom(config):
    raise ValueError(f"boom on {config}")


def _tasks(n, offset=0):
    return [
        SweepTask("test.square", square, i, params={"offset": offset})
        for i in range(n)
    ]


class TestRunSweep:
    def test_serial_order_and_values(self):
        sweep = run_sweep(_tasks(6))
        assert sweep.values() == [{"square": i * i} for i in range(6)]
        assert sweep.n_computed == 6 and sweep.n_cached == 0
        assert sweep.wall_seconds >= 0
        assert sweep.compute_seconds >= 0

    def test_results_keep_task_order(self):
        # scalar and batched tasks interleave; results still follow tasks
        tasks = [
            t for pair in zip(_tasks(6), _batch_tasks(6, offset=1)) for t in pair
        ]
        sweep = run_sweep(tasks)
        for task, result in zip(tasks, sweep.results):
            assert result.key == task.cache_key()
            assert result.experiment_id == task.experiment_id
            assert result.value == square(task.config, **task.params)

    def test_cache_hits_skip_computation(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = run_sweep(_tasks(8), cache=cache)
        assert cold.n_computed == 8
        warm = run_sweep(_tasks(8), cache=cache)
        assert warm.n_cached == 8 and warm.n_computed == 0
        assert all(r.seconds == 0.0 and r.cached for r in warm.results)
        assert warm.payload_json() == cold.payload_json()

    def test_partial_cache_recomputes_only_misses(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep(_tasks(5), cache=cache)
        mixed = run_sweep(_tasks(8), cache=cache)  # 3 new points
        assert mixed.n_cached == 5 and mixed.n_computed == 3
        assert mixed.values() == [{"square": i * i} for i in range(8)]

    def test_param_change_misses_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_sweep(_tasks(5), cache=cache)
        changed = run_sweep(_tasks(5, offset=1), cache=cache)
        assert changed.n_computed == 5
        assert changed.values() == [{"square": i * i + 1} for i in range(5)]

    def test_worker_exception_propagates_serial(self):
        tasks = _tasks(3) + [SweepTask("test.boom", boom, 99)]
        with pytest.raises(ValueError, match="boom on 99"):
            run_sweep(tasks)

    def test_completed_chunks_persist_through_failure(self, tmp_path):
        """A late failure must not lose earlier points: every dispatch
        group that finished before the raising one is already in the
        cache, so the re-run resumes instead of starting over."""
        cache = ResultCache(tmp_path / "cache")
        scalar = _tasks(4)
        batched = _batch_tasks(5, offset=7)
        later = _tasks(3, offset=100)
        tasks = scalar + batched + [SweepTask("test.boom", boom, 99)] + later
        with pytest.raises(ValueError, match="boom on 99"):
            run_sweep(tasks, cache=cache)
        done = scalar + batched
        assert all(t.cache_key() in cache for t in done)
        assert not any(t.cache_key() in cache for t in later)
        resumed = run_sweep(done + later, cache=cache)
        assert resumed.n_cached == len(done)
        assert resumed.n_computed == len(later)


class TestTableIIIEquivalence:
    """The cached Table III sweep is byte-identical to the computed one."""

    def test_cached_sweep_equals_computed(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = explore(cache=cache)
        warm = explore(cache=cache)
        assert warm.sweep.n_cached == PAPER_SPACE.size()
        assert warm.sweep.payload_json() == cold.sweep.payload_json()
        assert warm.points == cold.points


def square_batch(configs, offset=0):
    """Vectorized twin of :func:`square`."""
    return [{"square": c * c + offset} for c in configs]


def square_batch_short(configs, offset=0):
    return square_batch(configs, offset)[:-1]


def _batch_tasks(n, offset=0, batch_fn=square_batch):
    return [
        SweepTask(
            "test.square", square, i, params={"offset": offset},
            batch_fn=batch_fn,
        )
        for i in range(n)
    ]


class TestBatchDispatch:
    def test_serial_batch_matches_scalar(self):
        scalar = run_sweep(_tasks(7, offset=3))
        batched = run_sweep(_batch_tasks(7, offset=3))
        assert batched.payload_json() == scalar.payload_json()
        assert batched.batched_points == 7
        assert batched.batch_calls == 1
        assert scalar.batched_points == 0

    def test_param_groups_dispatch_separately(self):
        tasks = _batch_tasks(3, offset=0) + _batch_tasks(3, offset=9)
        sweep = run_sweep(tasks)
        assert sweep.values() == [{"square": i * i} for i in range(3)] + [
            {"square": i * i + 9} for i in range(3)
        ]
        assert sweep.batch_calls == 2
        assert sweep.batched_points == 6

    def test_mixed_scalar_and_batch_tasks(self):
        tasks = _batch_tasks(4) + _tasks(3)
        sweep = run_sweep(tasks)
        assert sweep.values() == [{"square": i * i} for i in range(4)] + [
            {"square": i * i} for i in range(3)
        ]
        assert sweep.batched_points == 4
        assert sweep.batch_calls == 1

    def test_batch_fn_not_in_cache_key(self, tmp_path):
        """Scalar- and batch-run sweeps share cache entries."""
        cache = ResultCache(tmp_path / "cache")
        cold = run_sweep(_tasks(5), cache=cache)
        warm = run_sweep(_batch_tasks(5), cache=cache)
        assert warm.n_cached == 5
        assert warm.batched_points == 0
        assert warm.payload_json() == cold.payload_json()

    def test_payload_count_mismatch_raises(self):
        with pytest.raises(RuntimeError, match="payloads"):
            run_sweep(_batch_tasks(4, batch_fn=square_batch_short))
