"""The metrics registry: counters, gauges, histograms and timers.

One :class:`MetricsRegistry` holds every named instrument of a telemetry
session.  Instruments are created lazily on first use (``registry.counter
("polymem.plan_cache.hits").inc()``) so instrumentation sites never need
set-up code, and the whole registry reduces to plain-JSON data through
:meth:`MetricsRegistry.to_dict` — the shape consumed by
``repro telemetry summary`` and merged into ``repro.exec`` reports.

Design constraints (see ``docs/observability.md``):

* instruments are *observational only* — they never feed back into the
  simulation, so enabling telemetry cannot change results;
* the hot-path cost model is "one dict probe plus an integer add":
  no locks (the simulator is single-threaded), no timestamps, no
  allocation after the first observation of a name.
"""

from __future__ import annotations

import math
import time

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing count (int or float amounts)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.value})"


class Gauge:
    """A sampled value; tracks the last, minimum and maximum observation."""

    __slots__ = ("value", "min", "max", "n")

    def __init__(self) -> None:
        self.value = None
        self.min = None
        self.max = None
        self.n = 0

    def set(self, value: int | float) -> None:
        self.value = value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        self.n += 1

    def to_dict(self) -> dict:
        return {"value": self.value, "min": self.min, "max": self.max, "n": self.n}


class Histogram:
    """A distribution summary: count/sum/min/max plus power-of-two buckets.

    The bucket for a value ``v`` is the smallest power of two ``>= v``
    (values ``<= 1`` share the ``1`` bucket) — coarse, allocation-free,
    and exactly what chunk-size distributions need.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None
        self.buckets: dict[int, int] = {}

    @staticmethod
    def bucket_of(value: float) -> int:
        if value <= 1:
            return 1
        return 1 << math.ceil(math.log2(value))

    def observe(self, value: int | float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        b = self.bucket_of(value)
        self.buckets[b] = self.buckets.get(b, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }


class _Timer:
    """Context manager observing elapsed seconds into a histogram."""

    __slots__ = ("_histogram", "_t0")

    def __init__(self, histogram: Histogram):
        self._histogram = histogram
        self._t0 = 0.0

    def __enter__(self) -> "_Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._histogram.observe(time.perf_counter() - self._t0)


class MetricsRegistry:
    """Lazily-created named instruments for one telemetry session."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = Counter()
        return c

    def gauge(self, name: str) -> Gauge:
        g = self.gauges.get(name)
        if g is None:
            g = self.gauges[name] = Gauge()
        return g

    def histogram(self, name: str) -> Histogram:
        h = self.histograms.get(name)
        if h is None:
            h = self.histograms[name] = Histogram()
        return h

    def timer(self, name: str) -> _Timer:
        """Time a block into histogram *name* (seconds)."""
        return _Timer(self.histogram(name))

    def to_dict(self) -> dict:
        """Plain-JSON view of every instrument (sorted names)."""
        return {
            "counters": {k: self.counters[k].value for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k].to_dict() for k in sorted(self.gauges)},
            "histograms": {
                k: self.histograms[k].to_dict() for k in sorted(self.histograms)
            },
        }
