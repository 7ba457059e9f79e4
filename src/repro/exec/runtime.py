"""The cached sweep runtime.

The grid-shaped work in this repository — the Table III DSE sweep and
the scorecard's §IV-A validation grid — is a *sweep*: one experiment id,
a list of configs and shared params.  :func:`run_sweep` runs a sweep in
the calling process as one ``compute(configs, **params)`` call, or reads
it whole from an optional :class:`~repro.exec.cache.ResultCache` entry,
and surfaces its wall-clock accounting as ``exec.*`` telemetry (see
``docs/observability.md``) and, when ``$REPRO_LEDGER`` is set, a
run-ledger entry.

``compute`` returns one plain-JSON payload per config, in config order,
so a sweep can be cached and compared byte for byte with and without
the cache.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from ..telemetry import context as _telemetry
from .cache import ResultCache, cache_key

__all__ = ["SweepResult", "run_sweep"]


@dataclass(frozen=True)
class SweepResult:
    """A sweep's payloads, in config order, plus run accounting."""

    values: list[Any]
    wall_seconds: float  #: end-to-end sweep wall clock
    compute_seconds: float  #: wall clock of the compute call (0.0 on a hit)
    cached: bool  #: read from the cache instead of computed


def run_sweep(
    experiment_id: str,
    configs: Iterable[Any],
    compute: Callable[..., Iterable[Any]],
    params: Mapping[str, Any] | None = None,
    cache: ResultCache | None = None,
) -> SweepResult:
    """Compute ``compute(configs, **params)``, consulting *cache* first.

    The sweep's cache key is computed only when a *cache* is given; a hit
    skips the computation and a miss is stored once it finishes.  If
    ``compute`` raises, the exception propagates and nothing is cached.
    """
    configs = list(configs)
    params = dict(params or {})
    t_sweep = time.perf_counter()
    key = values = None
    if cache is not None:
        key = cache_key(experiment_id, configs, params)
        values = cache.get(key, len(configs))
    cached = values is not None
    compute_seconds = 0.0
    if not cached:
        t0 = time.perf_counter()
        values = list(compute(configs, **params))
        compute_seconds = time.perf_counter() - t0
        if len(values) != len(configs):
            raise RuntimeError(
                f"{experiment_id}: {compute!r} returned {len(values)} "
                f"payloads for {len(configs)} configs"
            )
        if cache is not None:
            cache.put(key, values)
    sweep = SweepResult(
        values=values,
        wall_seconds=time.perf_counter() - t_sweep,
        compute_seconds=compute_seconds,
        cached=cached,
    )
    tel = _telemetry.active()
    if tel is not None:
        n = len(configs)
        n_cached = n if cached else 0
        m = tel.metrics
        m.counter("exec.points").inc(n)
        m.counter("exec.cache.hits").inc(n_cached)
        m.counter("exec.cache.misses").inc(n - n_cached)
        m.counter("exec.wall_seconds").inc(sweep.wall_seconds)
        m.counter("exec.compute_seconds").inc(compute_seconds)
        if tel.tracer is not None:
            tel.tracer.instant(
                "exec.sweep",
                cat="exec",
                points=n,
                cached=n_cached,
                wall_seconds=sweep.wall_seconds,
            )
        # auto-ledger: a metered sweep appends a run-ledger entry when
        # $REPRO_LEDGER names a destination (never raises into the sweep)
        from ..telemetry.ledger import maybe_record_sweep

        maybe_record_sweep(experiment_id, sweep, tel)
    return sweep
