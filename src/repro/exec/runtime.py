"""The cached, batched sweep runtime.

All grid-shaped work in this repository — the Table III DSE sweep, the
§IV-A validation grid, the Fig. 10 size sweep, the scorecard — is a list
of independent *(experiment id, function, config, params)* points.
:func:`run_sweep` executes such a list in the calling process with

* an optional content-addressed :class:`~repro.exec.cache.ResultCache`
  consulted in one batched ``get_many`` before computing and written
  with one ``put_many`` per dispatch group, so a sweep that raises
  part-way keeps every group that finished before the failure;
* **batch dispatch**: tasks sharing ``(experiment_id, batch_fn, params)``
  evaluate in one vectorized ``batch_fn`` call;
* deterministic result ordering — ``SweepResult.results[i]`` always
  corresponds to ``tasks[i]``;
* wall-clock accounting surfaced as ``exec.*`` telemetry (see
  ``docs/observability.md``) and, when ``$REPRO_LEDGER`` is set, a
  run-ledger entry.

Task functions take the task's config as the first argument plus the
task's params as keyword arguments, and must return plain-JSON data (so
results can be cached and compared byte-for-byte with and without the
cache or the batch path).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..telemetry import context as _telemetry
from .cache import ResultCache, cache_key

__all__ = ["SweepTask", "RunResult", "SweepResult", "run_sweep"]


@dataclass(frozen=True)
class SweepTask:
    """One independent sweep point.

    ``fn(config, **params)`` computes the point's plain-JSON payload;
    the cache key hashes *(experiment_id, config, params, model version)*.
    """

    experiment_id: str
    fn: Callable[..., Any]
    config: Any = None
    params: Mapping[str, Any] = field(default_factory=dict)
    #: optional vectorized evaluator: ``batch_fn(configs, **params)``
    #: computes a whole group of sibling points (same experiment_id and
    #: params) in one pass, returning one plain-JSON payload per config
    #: in order — each payload must be byte-identical to what
    #: ``fn(config, **params)`` returns for the same config.  It is an
    #: execution detail and never part of the cache key.
    batch_fn: Callable[..., Any] | None = None

    def cache_key(self) -> str:
        return cache_key(self.experiment_id, self.config, self.params)


@dataclass(frozen=True)
class RunResult:
    """Outcome of one sweep point."""

    experiment_id: str
    key: str
    value: Any
    seconds: float  #: compute time (0.0 for a cache hit)
    cached: bool


@dataclass
class SweepResult:
    """All point outcomes, in task order, plus run accounting."""

    results: list[RunResult]
    wall_seconds: float  #: end-to-end sweep wall clock
    batched_points: int = 0  #: points computed through a ``batch_fn`` group
    batch_calls: int = 0  #: vectorized ``batch_fn`` invocations

    def values(self) -> list[Any]:
        return [r.value for r in self.results]

    @property
    def n_cached(self) -> int:
        return sum(r.cached for r in self.results)

    @property
    def n_computed(self) -> int:
        return len(self.results) - self.n_cached

    @property
    def compute_seconds(self) -> float:
        """Total compute time across all points."""
        return sum(r.seconds for r in self.results)

    def payload_json(self) -> str:
        """Canonical JSON of (key, value) per point — identical bytes for
        identical work regardless of batching/caching/timing."""
        import json

        return json.dumps(
            [{"key": r.key, "value": r.value} for r in self.results],
            sort_keys=True,
            separators=(",", ":"),
        )


def _execute(task: SweepTask) -> tuple[Any, float]:
    """In-process execution of one task."""
    t0 = time.perf_counter()
    value = task.fn(task.config, **dict(task.params))
    return value, time.perf_counter() - t0


def _dispatch_groups(
    tasks: Sequence[SweepTask], indices: Iterable[int]
) -> list[list[int]]:
    """Partition *indices* into execution groups, first-seen order.

    Tasks carrying the same ``(experiment_id, batch_fn, params)`` triple
    form one group (their configs go to ``batch_fn`` in a single call);
    tasks without a ``batch_fn`` stay singleton groups on the scalar
    path.  Within a group the original index order is preserved, so the
    group's payloads map back to their tasks positionally.
    """
    groups: dict[Any, list[int]] = {}
    order: list[list[int]] = []
    for i in indices:
        task = tasks[i]
        if task.batch_fn is None:
            order.append([i])
            continue
        key = (
            task.experiment_id,
            task.batch_fn,
            tuple(sorted((k, repr(v)) for k, v in dict(task.params).items())),
        )
        group = groups.get(key)
        if group is None:
            groups[key] = group = []
            order.append(group)
        group.append(i)
    return order


def _execute_group(
    tasks: Sequence[SweepTask], idxs: Sequence[int]
) -> tuple[list[tuple[Any, float]], int, int]:
    """Run one dispatch group; returns ``(pairs, batched_points,
    batch_calls)`` with one ``(value, seconds)`` pair per index (the
    batch call's wall time is split evenly across its points)."""
    first = tasks[idxs[0]]
    if first.batch_fn is None:
        return [_execute(tasks[i]) for i in idxs], 0, 0
    group = [tasks[i] for i in idxs]
    t0 = time.perf_counter()
    values = list(first.batch_fn([t.config for t in group], **dict(first.params)))
    seconds = time.perf_counter() - t0
    if len(values) != len(group):
        raise RuntimeError(
            f"batch_fn {first.batch_fn!r} returned {len(values)} payloads "
            f"for {len(group)} configs"
        )
    per = seconds / len(group)
    return [(v, per) for v in values], len(group), 1


def run_sweep(
    tasks: Iterable[SweepTask] | Sequence[SweepTask],
    cache: ResultCache | None = None,
) -> SweepResult:
    """Run every task, consulting *cache* first.

    Parameters
    ----------
    cache:
        A :class:`ResultCache`; hits skip computation (resolved in one
        batched ``get_many``), misses are stored one dispatch group at a
        time as the groups finish.  ``None`` disables caching.

    If a task raises, the exception propagates; every dispatch group
    that finished before it is already in *cache*, so a re-run resumes
    from there instead of from zero.
    """
    tasks = list(tasks)
    t_sweep = time.perf_counter()

    # -- resolve cache hits up front (one batched directory-scan lookup) ---
    keys = [t.cache_key() for t in tasks]
    hits = cache.get_many(keys) if cache is not None else {}
    results: list[RunResult | None] = [
        RunResult(task.experiment_id, key, hits[key], 0.0, True)
        if key in hits
        else None
        for task, key in zip(tasks, keys)
    ]
    pending = [i for i, r in enumerate(results) if r is None]

    n_batched = n_batch_calls = 0
    for idxs in _dispatch_groups(tasks, pending):
        pairs, batched, calls = _execute_group(tasks, idxs)
        n_batched += batched
        n_batch_calls += calls
        if cache is not None:
            cache.put_many({keys[i]: value for i, (value, _) in zip(idxs, pairs)})
        for i, (value, seconds) in zip(idxs, pairs):
            results[i] = RunResult(
                tasks[i].experiment_id, keys[i], value, seconds, False
            )

    sweep = SweepResult(
        results=results,  # type: ignore[arg-type]  (all slots filled above)
        wall_seconds=time.perf_counter() - t_sweep,
        batched_points=n_batched,
        batch_calls=n_batch_calls,
    )
    tel = _telemetry.active()
    if tel is not None:
        m = tel.metrics
        m.counter("exec.points").inc(len(tasks))
        m.counter("exec.cache.hits").inc(sweep.n_cached)
        m.counter("exec.cache.misses").inc(sweep.n_computed)
        m.counter("exec.wall_seconds").inc(sweep.wall_seconds)
        m.counter("exec.compute_seconds").inc(sweep.compute_seconds)
        task_hist = m.histogram("exec.task_seconds")
        for r in sweep.results:
            if not r.cached:
                task_hist.observe(r.seconds)
        if tel.tracer is not None:
            tel.tracer.instant(
                "exec.sweep",
                cat="exec",
                points=len(tasks),
                cached=sweep.n_cached,
                wall_seconds=sweep.wall_seconds,
            )
        # auto-ledger: a metered sweep appends a run-ledger entry when
        # $REPRO_LEDGER names a destination (never raises into the sweep)
        from ..telemetry.ledger import maybe_record_sweep

        maybe_record_sweep(
            [t.experiment_id for t in tasks], sweep, tel
        )
    return sweep
