"""Span tracing with Chrome-trace-event (Perfetto) JSON export.

:class:`SpanTracer` records *spans* — named, nested time intervals — and
serializes them in the Chrome trace-event format that
https://ui.perfetto.dev loads directly.  Two tracks (trace "threads")
exist side by side:

* ``wall`` — real elapsed time of the Python process.  Host calls,
  kernel runs, batched/scalar simulator segments, program segments and
  trace replays land here; nesting follows the call stack.
* ``sim`` — the *simulated* wall clock of the :class:`~repro.maxeler.
  host.Host` ledger (PCIe overhead + payload + compute nanoseconds).
  Host call / PCIe DMA / kernel compute intervals land here with their
  modelled durations, which is where the paper's ~300 ns overhead
  amortization becomes visible.

The tracer is append-only and never raises into instrumented code; spans
left open by an error path (e.g. the program and segment spans of a
program execution a replay error aborts) are closed at export time and
flagged ``"aborted": true``.
"""

from __future__ import annotations

import json
import time
from fnmatch import fnmatch
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # profiling modules load only when a span is profiled
    import cProfile

__all__ = ["SpanTracer", "TRACK_WALL", "TRACK_SIM"]

TRACK_WALL = "wall"
TRACK_SIM = "sim"

_PID = 1
_TRACK_TIDS = {TRACK_WALL: 1, TRACK_SIM: 2}


class _SpanHandle:
    """Context manager closing one open span on exit."""

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "SpanTracer"):
        self._tracer = tracer

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        self._tracer.end(aborted=True) if exc_type else self._tracer.end()


class SpanTracer:
    """Collects trace events; exports Perfetto-loadable JSON.

    ``clock`` is injectable for tests; it must return nanoseconds.
    """

    def __init__(self, clock=None):
        self._clock = clock or time.perf_counter_ns
        self._t0 = self._clock()
        self.events: list[dict] = []
        self._stack: list[dict] = []
        self._profile_pattern: str | None = None
        self._profile_top = 10
        self._profiler: cProfile.Profile | None = None

    # -- clock ---------------------------------------------------------------
    def _now_us(self) -> float:
        return (self._clock() - self._t0) / 1000.0

    # -- per-span profiling ---------------------------------------------------
    def profile_spans(self, pattern: str | None = "*", top: int = 10) -> None:
        """Attribute time *inside* matching spans with :mod:`cProfile`.

        While enabled, the outermost wall span whose name fnmatches
        *pattern* runs under a profiler; at :meth:`end` the top-*top*
        functions by cumulative time land in the span's ``args
        ["profile"]`` — so a regression localizes to a span *and* the
        Python frames under it, not just a benchmark total.  Only one
        profiler runs at a time (cProfile cannot nest): inner matching
        spans are simply covered by the outer profile.  Pass ``None`` to
        disable.  Profiling failures are swallowed — the tracer never
        raises into instrumented code.
        """
        self._profile_pattern = pattern
        self._profile_top = top

    def _profile_rows(self, profiler: cProfile.Profile) -> list[dict]:
        import pstats

        stats = pstats.Stats(profiler)
        rows = sorted(
            stats.stats.items(), key=lambda kv: kv[1][3], reverse=True
        )
        out = []
        for (filename, lineno, func), (cc, nc, tt, ct, _callers) in rows[
            : self._profile_top
        ]:
            out.append(
                {
                    "func": f"{filename}:{lineno}({func})",
                    "ncalls": nc,
                    "tottime": round(tt, 6),
                    "cumtime": round(ct, 6),
                }
            )
        return out

    # -- wall-clock spans (stack discipline) --------------------------------
    def begin(self, name: str, cat: str = "repro", **args) -> None:
        """Open a nested wall-clock span; pair with :meth:`end`."""
        frame = {"name": name, "cat": cat, "ts": self._now_us(), "args": dict(args)}
        if (
            self._profile_pattern is not None
            and self._profiler is None
            and fnmatch(name, self._profile_pattern)
        ):
            try:
                import cProfile

                self._profiler = cProfile.Profile()
                frame["profiler"] = self._profiler
                self._profiler.enable()
            except Exception:  # pragma: no cover - environment-dependent
                self._profiler = None
                frame.pop("profiler", None)
        self._stack.append(frame)

    def end(self, **args) -> None:
        """Close the innermost open span (no-op when none is open, so
        an unmatched end stays safe after an aborted begin)."""
        if not self._stack:
            return
        top = self._stack.pop()
        profiler = top.pop("profiler", None)
        if profiler is not None:
            try:
                profiler.disable()
                top["args"]["profile"] = self._profile_rows(profiler)
            except Exception:  # pragma: no cover - never raise at span end
                pass
            finally:
                self._profiler = None
        top["args"].update(args)
        self._push_complete(
            top["name"], top["cat"], top["ts"], self._now_us() - top["ts"],
            TRACK_WALL, top["args"],
        )

    def span(self, name: str, cat: str = "repro", **args) -> _SpanHandle:
        """``with tracer.span("kernel.run"): ...`` — begin/end in one."""
        self.begin(name, cat, **args)
        return _SpanHandle(self)

    def instant(self, name: str, cat: str = "repro", **args) -> None:
        """A zero-duration marker on the wall track."""
        self.events.append(
            {
                "name": name,
                "cat": cat,
                "ph": "i",
                "s": "t",
                "ts": self._now_us(),
                "pid": _PID,
                "tid": _TRACK_TIDS[TRACK_WALL],
                "args": dict(args),
            }
        )

    # -- arbitrary-track complete events ------------------------------------
    def complete_ns(
        self,
        name: str,
        start_ns: float,
        dur_ns: float,
        cat: str = "repro",
        track: str = TRACK_SIM,
        **args,
    ) -> None:
        """A complete span with explicit start/duration in nanoseconds —
        used for the simulated-time track, whose clock is the Host ledger
        rather than the process clock."""
        self._push_complete(name, cat, start_ns / 1000.0, dur_ns / 1000.0, track, args)

    def _push_complete(self, name, cat, ts_us, dur_us, track, args) -> None:
        self.events.append(
            {
                "name": name,
                "cat": cat,
                "ph": "X",
                "ts": ts_us,
                "dur": dur_us,
                "pid": _PID,
                "tid": _TRACK_TIDS[track],
                "args": args,
            }
        )

    # -- export --------------------------------------------------------------
    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def close_open_spans(self) -> None:
        """Close spans an error path left open (outermost closes last, so
        nesting stays consistent); each gains ``"aborted": true``."""
        while self._stack:
            self.end(aborted=True)

    def to_chrome_trace(self) -> dict:
        self.close_open_spans()
        meta = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "args": {"name": f"{track} time"},
            }
            for track, tid in _TRACK_TIDS.items()
        ]
        return {
            "traceEvents": meta + self.events,
            "displayTimeUnit": "ns",
        }

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome_trace(), fh)
