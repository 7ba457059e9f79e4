"""The access-program IR: one typed description of a memory-bound kernel.

Every PolyMem client used to hand-assemble its own
:class:`~repro.core.plan.AccessTrace`, anchor iteration and stats plumbing.
An :class:`AccessProgram` replaces that with a small ordered IR of four
typed operations:

* :class:`ParallelRead`   — a stream of parallel reads on one port;
* :class:`ParallelWrite`  — a stream of parallel writes (values may be
  concrete, or late-bound host data produced by an earlier
  :class:`Compute`);
* :class:`Compute`        — host-side work over previously read data
  (a segment boundary: accesses cannot move across it);
* :class:`Barrier`        — an explicit segment boundary with no host work.

Programs are *lowered* from application kernels, the PRF vector machine,
schedule executions and the STREAM controller — all through the one
builder surface in :mod:`repro.program.builder` (see also the demo
registry in :mod:`repro.program.lower`) — then compiled by
:mod:`repro.program.passes` and executed by :mod:`repro.program.engine`.
The pipeline guarantees bit-identical behaviour to hand-built traces:
compilation only groups and coalesces accesses in ways
:meth:`~repro.core.polymem.PolyMem.replay` proves equivalent, and the
fusion pass (:mod:`repro.program.fuse`) falls back to ``replay`` for
any step it cannot prove bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence, Union

import numpy as np

from ..core.exceptions import ProgramError
from ..core.patterns import PatternKind

__all__ = [
    "AccessOp",
    "AccessProgram",
    "Barrier",
    "Compute",
    "ParallelRead",
    "ParallelWrite",
]

#: a write's data: concrete ``(n, lanes)`` values, a late-bound callable
#: ``env -> (n, lanes)`` resolved at execution, or ``None`` for programs
#: that only *describe* accesses (trace derivation, chunk proofs, anchor
#: generation) and are never executed
ValueSource = Union[np.ndarray, Callable[[Mapping[str, Any]], np.ndarray], None]


def _as_anchors(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ProgramError(f"{name} anchors must be scalar or 1-D, got {arr.ndim}-D")
    return arr


def _as_kinds(kind, n: int):
    """Normalize *kind* to one PatternKind or an n-length tuple of them."""
    if isinstance(kind, (PatternKind, str)):
        return PatternKind(kind)
    kinds = tuple(PatternKind(k) for k in kind)
    if len(kinds) != n:
        raise ProgramError(f"per-cycle kinds: got {len(kinds)} kinds for {n} anchors")
    return kinds


class AccessOp:
    """Common shape of the two access ops: a typed anchor stream.

    ``kind`` is one :class:`~repro.core.patterns.PatternKind` (uniform
    stream) or an ``n``-length per-cycle sequence (heterogeneous stream,
    e.g. a §III-A schedule mixing access shapes).
    """

    __slots__ = ("kind", "anchors_i", "anchors_j", "stride", "tag", "mem", "fuse")

    def __init__(self, kind, anchors_i, anchors_j, stride=1, tag=None, mem="default",
                 fuse=False):
        self.anchors_i = _as_anchors(anchors_i, "i")
        self.anchors_j = _as_anchors(anchors_j, "j")
        if self.anchors_i.shape != self.anchors_j.shape:
            raise ProgramError(
                f"anchor arrays must be equal length: "
                f"{self.anchors_i.size} vs {self.anchors_j.size}"
            )
        self.kind = _as_kinds(kind, self.anchors_i.size)
        if stride < 1:
            raise ProgramError(f"stride must be >= 1, got {stride}")
        self.stride = int(stride)
        self.tag = tag
        self.mem = mem
        #: issue in the same cycles as the previous access op (one trace,
        #: distinct ports) instead of after it — the PRF's concurrent
        #: multi-port streaming and read+write-per-cycle workloads
        self.fuse = bool(fuse)

    @property
    def n(self) -> int:
        """Stream length in cycles (one parallel access per cycle)."""
        return self.anchors_i.size

    @property
    def uniform(self) -> bool:
        return isinstance(self.kind, PatternKind)

    def kind_seq(self) -> list[PatternKind]:
        """The per-cycle kind sequence, expanded."""
        if self.uniform:
            return [self.kind] * self.n
        return list(self.kind)

    def kind_label(self) -> str:
        if self.uniform:
            return self.kind.value
        distinct = list(dict.fromkeys(self.kind))
        return "|".join(k.value for k in distinct)

    def cells(self, p: int, q: int) -> set[tuple[int, int]]:
        """Every (i, j) cell this op touches on a ``p x q`` lane grid."""
        from ..core.patterns import pattern_offsets

        out: set[tuple[int, int]] = set()
        ai, aj = self.anchors_i, self.anchors_j
        if self.uniform:
            groups = [(self.kind, ai, aj)]
        else:
            codes = np.asarray([k.value for k in self.kind])
            groups = [
                (k, ai[codes == k.value], aj[codes == k.value])
                for k in dict.fromkeys(self.kind)
            ]
        for kind, gi, gj in groups:
            di, dj = pattern_offsets(kind, p, q, self.stride)
            ii = gi[:, None] + di[None, :]
            jj = gj[:, None] + dj[None, :]
            out.update(zip(ii.ravel().tolist(), jj.ravel().tolist()))
        return out


class ParallelRead(AccessOp):
    """A stream of parallel reads on one port.

    ``tag`` names the ``(n, lanes)`` result in the execution environment;
    untagged reads still consume cycles but their data is dropped.
    """

    __slots__ = ("port",)

    def __init__(
        self, kind, anchors_i, anchors_j, port=0, stride=1, tag=None, mem="default",
        fuse=False,
    ):
        super().__init__(kind, anchors_i, anchors_j, stride, tag, mem, fuse)
        if port < 0:
            raise ProgramError(f"read port must be >= 0, got {port}")
        self.port = int(port)

    def __repr__(self) -> str:
        tag = f" -> {self.tag!r}" if self.tag else ""
        return (
            f"ParallelRead({self.kind_label()}, n={self.n}, "
            f"port={self.port}, stride={self.stride}{tag})"
        )


class ParallelWrite(AccessOp):
    """A stream of parallel writes on the write port.

    ``values`` is the ``(n, lanes)`` data, a callable ``env -> (n, lanes)``
    resolved when the program executes (late-bound host results), or
    ``None`` for describe-only programs.
    """

    __slots__ = ("values",)

    def __init__(
        self, kind, anchors_i, anchors_j, values=None, stride=1, tag=None,
        mem="default", fuse=False,
    ):
        super().__init__(kind, anchors_i, anchors_j, stride, tag, mem, fuse)
        if values is not None and not callable(values):
            values = np.asarray(values)
            if values.ndim != 2 or values.shape[0] != self.n:
                raise ProgramError(
                    f"write values must be (n, lanes) = ({self.n}, ...), "
                    f"got shape {values.shape}"
                )
        self.values = values

    def resolve_values(self, env: Mapping[str, Any]) -> np.ndarray:
        if self.values is None:
            raise ProgramError(
                "write op has no values: describe-only programs cannot execute"
            )
        if callable(self.values):
            return np.asarray(self.values(env))
        return self.values

    def __repr__(self) -> str:
        src = (
            "deferred"
            if self.values is None
            else ("late-bound" if callable(self.values) else "concrete")
        )
        return (
            f"ParallelWrite({self.kind_label()}, n={self.n}, "
            f"stride={self.stride}, values={src})"
        )


@dataclass(frozen=True)
class Compute:
    """Host-side work over the execution environment (segment boundary).

    ``fn(env)`` may return a dict merged back into the environment, or
    mutate host state via its closure and return ``None``.
    """

    fn: Callable[[dict], Any]
    label: str = "compute"

    def __repr__(self) -> str:
        return f"Compute({self.label!r})"


@dataclass(frozen=True)
class Barrier:
    """An explicit segment boundary with no host work (accesses on either
    side never share a replayed trace)."""

    label: str = "barrier"

    def __repr__(self) -> str:
        return f"Barrier({self.label!r})"


@dataclass
class AccessProgram:
    """An ordered access program plus metadata — the unit every PolyMem
    client lowers to.

    >>> import numpy as np
    >>> prog = (
    ...     AccessProgram("demo")
    ...     .read("row", np.arange(4), np.zeros(4, int), tag="rows")
    ...     .compute(lambda env: {"sum": env["rows"].sum()}, label="reduce")
    ... )
    >>> len(prog)
    2
    """

    name: str
    ops: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    # -- builders (chainable) ---------------------------------------------
    def read(self, kind, anchors_i, anchors_j, port=0, stride=1, tag=None,
             mem="default", fuse=False) -> "AccessProgram":
        """Append a :class:`ParallelRead`."""
        self.ops.append(
            ParallelRead(kind, anchors_i, anchors_j, port, stride, tag, mem, fuse)
        )
        return self

    def write(self, kind, anchors_i, anchors_j, values=None, stride=1,
              mem="default", fuse=False) -> "AccessProgram":
        """Append a :class:`ParallelWrite`."""
        self.ops.append(
            ParallelWrite(kind, anchors_i, anchors_j, values, stride,
                          mem=mem, fuse=fuse)
        )
        return self

    def compute(self, fn, label="compute") -> "AccessProgram":
        """Append a :class:`Compute` boundary."""
        self.ops.append(Compute(fn, label))
        return self

    def barrier(self, label="barrier") -> "AccessProgram":
        """Append a :class:`Barrier` boundary."""
        self.ops.append(Barrier(label))
        return self

    def extend(self, ops: Sequence) -> "AccessProgram":
        """Append pre-built ops."""
        self.ops.extend(ops)
        return self

    # -- introspection -----------------------------------------------------
    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    @property
    def access_ops(self) -> list[AccessOp]:
        return [op for op in self.ops if isinstance(op, AccessOp)]

    @property
    def access_cycles(self) -> int:
        """Parallel-access cycles the program will consume (writes and the
        reads sharing their trace overlap are counted by the compiler;
        this is the naive per-op upper bound used for reporting)."""
        return sum(op.n for op in self.access_ops)

    def cells(self, p: int, q: int) -> set[tuple[int, int]]:
        """Union of all cells touched by the program's accesses."""
        out: set[tuple[int, int]] = set()
        for op in self.access_ops:
            out |= op.cells(p, q)
        return out

    def __repr__(self) -> str:
        return f"AccessProgram({self.name!r}, {len(self.ops)} ops)"
