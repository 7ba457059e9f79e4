"""The four STREAM applications (McCalpin) on PolyMem arrays.

The paper implements and measures Copy; Scale, Sum and Triad are declared
as future work (§VII) and are implemented here as the natural extension —
they exercise the second read port (Sum/Triad read two arrays per cycle).

Each :class:`StreamApp` declares its dataflow (source arrays, destination,
combine function), its memory-traffic accounting (bytes moved per element,
following the standard STREAM convention), and a NumPy reference for
verification.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["Mode", "StreamApp", "COPY", "SCALE", "SUM", "TRIAD", "all_apps"]

#: STREAM's traditional scalar constant
DEFAULT_SCALAR = 3.0


class Mode(str, enum.Enum):
    """The Controller's Mode signal (Fig. 9)."""

    LOAD = "load"
    COPY = "copy"
    SCALE = "scale"
    SUM = "sum"
    TRIAD = "triad"
    OFFLOAD = "offload"


@dataclass(frozen=True)
class StreamApp:
    """One STREAM application."""

    name: str
    mode: Mode
    #: source array indices (0=A, 1=B, 2=C) — one read port per source
    sources: tuple[int, ...]
    #: destination array index
    destination: int
    #: floating-point operations per element
    flops_per_element: int
    #: the reference computation over float64 arrays
    reference: Callable[..., np.ndarray]
    formula: str

    @property
    def reads_per_element(self) -> int:
        return len(self.sources)

    @property
    def writes_per_element(self) -> int:
        return 1

    @property
    def bytes_per_element(self) -> int:
        """STREAM-convention traffic: 8 B per read + 8 B per write."""
        return 8 * (self.reads_per_element + self.writes_per_element)

    @property
    def read_ports_needed(self) -> int:
        return len(self.sources)

    def expected(self, a: np.ndarray, b: np.ndarray, c: np.ndarray, scalar: float):
        """The destination array contents after one application."""
        return self.reference(a=a, b=b, c=c, q=scalar)


COPY = StreamApp(
    name="Copy",
    mode=Mode.COPY,
    sources=(0,),
    destination=2,
    flops_per_element=0,
    reference=lambda a, b, c, q: a.copy(),
    formula="c(i) = a(i)",
)

SCALE = StreamApp(
    name="Scale",
    mode=Mode.SCALE,
    sources=(1,),
    destination=0,
    flops_per_element=1,
    reference=lambda a, b, c, q: q * b,
    formula="a(i) = q * b(i)",
)

SUM = StreamApp(
    name="Sum",
    mode=Mode.SUM,
    sources=(1, 2),
    destination=0,
    flops_per_element=1,
    reference=lambda a, b, c, q: b + c,
    formula="a(i) = b(i) + c(i)",
)

TRIAD = StreamApp(
    name="Triad",
    mode=Mode.TRIAD,
    sources=(1, 2),
    destination=0,
    flops_per_element=2,
    reference=lambda a, b, c, q: b + q * c,
    formula="a(i) = b(i) + q * c(i)",
)


def all_apps() -> tuple[StreamApp, ...]:
    """Copy, Scale, Sum, Triad — STREAM's canonical order."""
    return (COPY, SCALE, SUM, TRIAD)
