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

Programs are *lowered* from application kernels,
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

from ..core.exceptions import PatternError, ProgramError
from ..core.plan import AccessBlock

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


class AccessOp:
    """Common shape of the two access ops: a typed anchor stream.

    ``block`` is the op's :class:`~repro.core.plan.AccessBlock`, built
    once at construction: the anchors plus one pattern family for the
    whole stream, or per-cycle int ``codes`` into its ``families``
    (heterogeneous stream, e.g. a §III-A schedule mixing access shapes;
    *kind* is then an ``n``-length sequence of kinds).
    """

    __slots__ = ("block", "stride", "tag", "mem", "fuse")

    def __init__(self, kind, anchors_i, anchors_j, stride=1, tag=None, mem="default",
                 fuse=False):
        ai = _as_anchors(anchors_i, "i")
        aj = _as_anchors(anchors_j, "j")
        if ai.shape != aj.shape:
            raise ProgramError(
                f"anchor arrays must be equal length: {ai.size} vs {aj.size}"
            )
        try:
            self.block = AccessBlock(kind, ai, aj, stride)
        except PatternError as e:  # per-cycle kind count, stride
            raise ProgramError(str(e)) from None
        self.stride = int(stride)
        self.tag = tag
        self.mem = mem
        #: issue in the same cycles as the previous access op (one trace,
        #: distinct ports) instead of after it — concurrent multi-port
        #: streaming and read+write-per-cycle workloads such as STREAM
        self.fuse = bool(fuse)

    @property
    def n(self) -> int:
        """Stream length in cycles (one parallel access per cycle)."""
        return len(self.block)

    def kind_label(self) -> str:
        return "|".join(kind.value for kind, _ in self.block.families)

    def cells(self, p: int, q: int) -> set[tuple[int, int]]:
        """Every (i, j) cell this op touches on a ``p x q`` lane grid."""
        from ..core.patterns import pattern_offsets

        out: set[tuple[int, int]] = set()
        block = self.block
        for code, (kind, stride) in enumerate(block.families):
            gi, gj = block.anchors_i, block.anchors_j
            if block.codes is not None:
                gi, gj = gi[block.codes == code], gj[block.codes == code]
            di, dj = pattern_offsets(kind, p, q, stride)
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
