"""The device-backend interface: pluggable memory substrates.

A :class:`DeviceBackend` bundles everything the rest of the system used to
hard-code against the one Maxeler Vectis board:

* **capacity/area feasibility** — does a :class:`~repro.core.config.
  PolyMemConfig` fit the substrate (:meth:`DeviceBackend.feasibility`)?
* **clock model** — the frequency bandwidth figures are quoted at
  (:meth:`DeviceBackend.clock_mhz`: paper Table IV on-grid, calibrated
  model otherwise);
* **host-transfer cost** — a :class:`LinkModel` charging per-call latency
  plus payload time (:class:`~repro.maxeler.pcie.PcieLink` satisfies it);
* **achieved bandwidth** — what the substrate actually delivers for a
  concrete address stream (:meth:`DeviceBackend.achieved_bandwidth`).
  On-chip BRAM substrates deliver peak for every conflict-free stream;
  DRAM/HBM substrates degrade with poor burst coalescing
  (:mod:`repro.backend.dram`).

Backends register by name (:func:`register_backend`) and are resolved
lazily (:func:`get_backend`); the ``REPRO_BACKEND`` environment variable
selects the default for backend-parameterized tests and CLI runs.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Protocol, runtime_checkable

import numpy as np

from ..core.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.config import PolyMemConfig
    from ..hw.synthesis import SynthesisReport

__all__ = [
    "AddressStream",
    "AchievedBandwidth",
    "DeviceBackend",
    "Feasibility",
    "LinkModel",
    "backend_device",
    "backend_names",
    "default_backend_name",
    "get_backend",
    "register_backend",
]


@runtime_checkable
class LinkModel(Protocol):
    """Host-link cost model: fixed call overhead + payload time."""

    def transfer_ns(self, payload_bytes: int) -> float:
        """Wall time of one blocking call moving *payload_bytes*."""
        ...

    def signal_ns(self) -> float:
        """Wall time of a payload-free control call."""
        ...


@dataclass(frozen=True)
class AddressStream:
    """A linear (host-side) word-address stream, in access order.

    This is the currency :meth:`DeviceBackend.achieved_bandwidth` consumes:
    the order in which words of a host array are touched during a transfer
    or an off-chip access phase.  ``addresses`` are word indices; byte
    addresses are ``addresses * word_bytes``.
    """

    addresses: np.ndarray
    word_bytes: int = 8

    def __post_init__(self) -> None:
        addrs = np.ascontiguousarray(self.addresses, dtype=np.int64).ravel()
        object.__setattr__(self, "addresses", addrs)
        if self.word_bytes <= 0:
            raise ConfigurationError(
                f"word_bytes must be positive, got {self.word_bytes}"
            )

    @property
    def n_words(self) -> int:
        return int(self.addresses.size)

    @property
    def payload_bytes(self) -> int:
        return self.n_words * self.word_bytes

    # -- constructors -----------------------------------------------------
    @classmethod
    def sequential(cls, n_words: int, word_bytes: int = 8) -> "AddressStream":
        """The ideal stream: ``0, 1, 2, ...``."""
        return cls(np.arange(n_words, dtype=np.int64), word_bytes)

    @classmethod
    def strided(
        cls, n_words: int, stride: int, word_bytes: int = 8
    ) -> "AddressStream":
        """A fixed-stride stream (column walks, interleaved arrays...)."""
        return cls(np.arange(n_words, dtype=np.int64) * stride, word_bytes)

    @classmethod
    def from_plan(
        cls,
        plan,
        anchors_i: np.ndarray,
        anchors_j: np.ndarray,
        word_bytes: int = 8,
    ) -> "AddressStream":
        """The host-address stream of a compiled access family.

        Uses the same anchor + per-lane offset tables
        (:class:`repro.core.plan.AccessPlan` ``di``/``dj``) the batched
        replay engine gathers from: lane ``k`` of the access anchored at
        ``(i, j)`` touches host word ``(i + di[k]) * cols + (j + dj[k])``,
        emitted in cycle-major, lane-minor order.
        """
        ai = np.asarray(anchors_i, dtype=np.int64)
        aj = np.asarray(anchors_j, dtype=np.int64)
        rows_idx = ai[:, None] + plan.di[None, :]
        cols_idx = aj[:, None] + plan.dj[None, :]
        return cls((rows_idx * plan.cols + cols_idx).ravel(), word_bytes)


@dataclass(frozen=True)
class Feasibility:
    """Capacity/area verdict for one configuration on one substrate."""

    feasible: bool
    #: fraction (0..1+) of the limiting capacity resource consumed
    utilization: float
    reason: str = ""
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class AchievedBandwidth:
    """What a substrate delivered for one address stream.

    ``achieved_gbps <= peak_gbps`` always; for on-chip BRAM the two are
    equal on conflict-free streams, for DRAM/HBM the gap is the burst and
    row-buffer behaviour of the stream.
    """

    peak_gbps: float
    achieved_gbps: float
    useful_bytes: int
    transferred_bytes: int
    time_ns: float
    bursts: int = 0
    row_hits: int = 0
    row_misses: int = 0

    @property
    def efficiency(self) -> float:
        """Achieved as a fraction of peak (0..1)."""
        return self.achieved_gbps / self.peak_gbps if self.peak_gbps else 0.0

    def to_dict(self) -> dict:
        return {
            "peak_gbps": self.peak_gbps,
            "achieved_gbps": self.achieved_gbps,
            "efficiency": self.efficiency,
            "useful_bytes": self.useful_bytes,
            "transferred_bytes": self.transferred_bytes,
            "time_ns": self.time_ns,
            "bursts": self.bursts,
            "row_hits": self.row_hits,
            "row_misses": self.row_misses,
        }


class DeviceBackend(ABC):
    """One pluggable memory substrate (see the module docstring)."""

    #: registry name; set by subclasses
    name: str = ""

    # -- identity ---------------------------------------------------------
    @abstractmethod
    def describe(self) -> dict:
        """Plain-JSON self-description (for reports and ``whatif`` tables)."""

    # -- capacity / area --------------------------------------------------
    @abstractmethod
    def feasibility(self, config: "PolyMemConfig") -> Feasibility:
        """Whether *config* fits this substrate, and how tightly."""

    # -- clock ------------------------------------------------------------
    @abstractmethod
    def clock_mhz(self, config: "PolyMemConfig") -> float:
        """Best available clock estimate for *config* on this substrate."""

    def paper_mhz(self, config: "PolyMemConfig") -> float | None:
        """Published Table IV frequency when on-grid (None otherwise)."""
        return None

    def synthesis(self, config: "PolyMemConfig") -> "SynthesisReport | None":
        """Full synthesis estimate, when the substrate has an FPGA fabric."""
        return None

    # -- host link --------------------------------------------------------
    @property
    @abstractmethod
    def link(self) -> LinkModel:
        """The host-transfer cost model."""

    def transfer_ns(self, payload_bytes: int) -> float:
        """Host-transfer wall time (one blocking call) for a payload."""
        return self.link.transfer_ns(payload_bytes)

    # -- bandwidth --------------------------------------------------------
    @abstractmethod
    def peak_read_gbps(self, config: "PolyMemConfig") -> float:
        """Aggregated peak read bandwidth (Fig. 5 axis) at the backend
        clock."""

    @abstractmethod
    def peak_write_gbps(self, config: "PolyMemConfig") -> float:
        """Peak single-port (write) bandwidth (Fig. 4 axis)."""

    @abstractmethod
    def achieved_bandwidth(
        self, config: "PolyMemConfig", stream: AddressStream
    ) -> AchievedBandwidth:
        """Delivered bandwidth for one concrete address stream."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"


def backend_device(backend: DeviceBackend):
    """The FPGA part a backend synthesizes on, or None for pure-link models.

    BRAM backends carry it directly; channel-system backends expose the
    fabric they sit behind; sharded backends report their first shard's
    part (shards are homogeneous by construction).
    """
    device = getattr(backend, "device", None)
    if device is not None:
        return device
    fabric = getattr(backend, "fabric", None)
    if fabric is not None:
        return backend_device(fabric)
    shards = getattr(backend, "shards", None)
    if shards:
        return backend_device(shards[0])
    return None


# -- registry -------------------------------------------------------------

_FACTORIES: dict[str, Callable[[], DeviceBackend]] = {}
_INSTANCES: dict[str, DeviceBackend] = {}

#: the registry default when ``REPRO_BACKEND`` is unset
DEFAULT_BACKEND = "vectis"


def register_backend(
    name: str, factory: Callable[[], DeviceBackend], replace: bool = False
) -> None:
    """Register a backend *factory* under *name* (built lazily, cached)."""
    if name in _FACTORIES and not replace:
        raise ConfigurationError(f"backend {name!r} is already registered")
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def backend_names() -> tuple[str, ...]:
    """Every registered backend name, registration order."""
    return tuple(_FACTORIES)


def default_backend_name() -> str:
    """``$REPRO_BACKEND`` when set (validated), else ``"vectis"``."""
    name = os.environ.get("REPRO_BACKEND", "").strip() or DEFAULT_BACKEND
    if name not in _FACTORIES:
        raise ConfigurationError(
            f"REPRO_BACKEND={name!r} is not a registered backend "
            f"(available: {', '.join(backend_names())})"
        )
    return name


def get_backend(name: str | None = None) -> DeviceBackend:
    """Resolve a backend by name (None: the default, honouring
    ``REPRO_BACKEND``).  Instances are built once and cached."""
    if name is None:
        name = default_backend_name()
    if isinstance(name, DeviceBackend):
        return name
    if name not in _FACTORIES:
        raise ConfigurationError(
            f"unknown backend {name!r} "
            f"(available: {', '.join(backend_names())})"
        )
    if name not in _INSTANCES:
        _INSTANCES[name] = _FACTORIES[name]()
    return _INSTANCES[name]
