"""The dataflow graph of a MaxJ-like kernel.

Paper §II-B: *"MaxJ adopts the dataflow programming paradigm, where an
application is described as a directed graph: each node represents an
operation on the data, while the edges represent the flow of data."*

:class:`KernelGraph` builds that graph through a DFEVar-style API:

>>> from repro.maxj.types import FLOAT64
>>> g = KernelGraph("triad")
>>> x = g.input("x", FLOAT64)
>>> y = g.input("y", FLOAT64)
>>> g.output("out", x + g.constant(3.0, FLOAT64) * y)

Supported nodes: stream inputs/outputs, constants, unary/binary arithmetic
and comparisons, 2-way multiplexers, free-running counters, and *stream
offsets* into the past (``var.offset(-k)`` — MaxJ's signature feature for
windowed computations).  :mod:`repro.maxj.compile` turns the graph into a
tickable :class:`~repro.maxeler.kernel.Kernel`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..core.exceptions import SimulationError
from .types import BOOL, HWType, unify

__all__ = ["DFEVar", "KernelGraph", "Node"]

#: per-operation pipeline latency in cycles (drives the compiled depth)
OP_LATENCY = {
    "input": 0,
    "const": 0,
    "counter": 0,
    "offset": 0,
    "accum": 1,
    "+": 1,
    "-": 1,
    "*": 2,
    "//": 8,
    "%": 8,
    "/": 4,
    "&": 1,
    "|": 1,
    "^": 1,
    "<<": 1,
    ">>": 1,
    "<": 1,
    "<=": 1,
    ">": 1,
    ">=": 1,
    "==": 1,
    "!=": 1,
    "mux": 1,
    "neg": 1,
    "abs": 1,
    "cast": 0,
}

_BINOPS: dict[str, Callable] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "//": operator.floordiv,
    "%": operator.mod,
    "/": operator.truediv,
    "&": operator.and_,
    "|": operator.or_,
    "^": operator.xor,
    "<<": np.left_shift,
    ">>": np.right_shift,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}

_COMPARISONS = {"<", "<=", ">", ">=", "==", "!="}


@dataclass
class Node:
    """One operation node of the graph."""

    id: int
    op: str
    type: HWType
    inputs: tuple[int, ...] = ()
    payload: Any = None  # const value / input name / offset distance ...

    @property
    def latency(self) -> int:
        return OP_LATENCY[self.op]


class DFEVar:
    """A handle to a node, with MaxJ-style operator overloading."""

    __slots__ = ("graph", "node_id")
    #: keep NumPy from hijacking `np.uint64(x) + DFEVar`
    __array_ufunc__ = None

    def __init__(self, graph: "KernelGraph", node_id: int):
        self.graph = graph
        self.node_id = node_id

    @property
    def node(self) -> Node:
        return self.graph.nodes[self.node_id]

    @property
    def type(self) -> HWType:
        return self.node.type

    # -- arithmetic ---------------------------------------------------------
    def _bin(self, other, op: str, reflected: bool = False) -> "DFEVar":
        other_var = self.graph.as_var(other, self.type)
        a, b = (other_var, self) if reflected else (self, other_var)
        out_t = BOOL if op in _COMPARISONS else unify(a.type, b.type)
        return self.graph._add_node(op, out_t, (a.node_id, b.node_id))

    def __add__(self, other):
        return self._bin(other, "+")

    def __radd__(self, other):
        return self._bin(other, "+", reflected=True)

    def __sub__(self, other):
        return self._bin(other, "-")

    def __rsub__(self, other):
        return self._bin(other, "-", reflected=True)

    def __mul__(self, other):
        return self._bin(other, "*")

    def __rmul__(self, other):
        return self._bin(other, "*", reflected=True)

    def __floordiv__(self, other):
        return self._bin(other, "//")

    def __mod__(self, other):
        return self._bin(other, "%")

    def __truediv__(self, other):
        return self._bin(other, "/")

    def __and__(self, other):
        return self._bin(other, "&")

    def __or__(self, other):
        return self._bin(other, "|")

    def __xor__(self, other):
        return self._bin(other, "^")

    def __lshift__(self, other):
        return self._bin(other, "<<")

    def __rshift__(self, other):
        return self._bin(other, ">>")

    def __lt__(self, other):
        return self._bin(other, "<")

    def __le__(self, other):
        return self._bin(other, "<=")

    def __gt__(self, other):
        return self._bin(other, ">")

    def __ge__(self, other):
        return self._bin(other, ">=")

    def eq(self, other):
        """Element-wise equality (named to keep Python ``==`` for identity)."""
        return self._bin(other, "==")

    def neq(self, other):
        return self._bin(other, "!=")

    def __neg__(self):
        return self.graph._add_node("neg", self.type, (self.node_id,))

    def abs(self):
        return self.graph._add_node("abs", self.type, (self.node_id,))

    def cast(self, to: HWType) -> "DFEVar":
        """Explicit type conversion."""
        return self.graph._add_node("cast", to, (self.node_id,), payload=to)

    # -- MaxJ specials ---------------------------------------------------------
    def offset(self, distance: int) -> "DFEVar":
        """The stream's value *distance* cycles away.

        Only past offsets (negative distances) are synthesizable without
        lookahead; MaxJ's positive offsets buffer the whole stream, which
        the mini-DSL does not model.
        """
        if distance >= 0:
            raise SimulationError(
                "only negative (past) stream offsets are supported"
            )
        return self.graph._add_node(
            "offset", self.type, (self.node_id,), payload=-distance
        )


class KernelGraph:
    """Builder + container for a dataflow kernel graph."""

    def __init__(self, name: str):
        self.name = name
        self.nodes: list[Node] = []
        self.inputs: dict[str, int] = {}
        self.outputs: dict[str, int] = {}

    # -- construction ----------------------------------------------------------
    def _add_node(self, op, type_, inputs=(), payload=None) -> DFEVar:
        node = Node(
            id=len(self.nodes), op=op, type=type_, inputs=tuple(inputs),
            payload=payload,
        )
        self.nodes.append(node)
        return DFEVar(self, node.id)

    def input(self, name: str, type_: HWType) -> DFEVar:
        """Declare a stream input."""
        if name in self.inputs:
            raise SimulationError(f"duplicate input {name!r}")
        var = self._add_node("input", type_, payload=name)
        self.inputs[name] = var.node_id
        return var

    def constant(self, value, type_: HWType) -> DFEVar:
        """A compile-time constant."""
        return self._add_node("const", type_, payload=type_.cast(value))

    def counter(self, type_: HWType, wrap: int | None = None) -> DFEVar:
        """A free-running counter (0, 1, 2, ... per cycle), optionally
        wrapping at *wrap*."""
        return self._add_node("counter", type_, payload=wrap)

    def accumulator(
        self, value: DFEVar, reset: DFEVar | None = None, init=0
    ) -> DFEVar:
        """A running sum: emits the accumulated total *including* this
        cycle's *value*; when *reset* is true the accumulation restarts at
        *value* (MaxJ's ``Reductions.streamHold``/accumulator idiom)."""
        inputs = [value.node_id]
        if reset is not None:
            inputs.append(reset.node_id)
        return self._add_node(
            "accum", value.type, tuple(inputs), payload=value.type.cast(init)
        )

    def mux(self, select: DFEVar, if_true: DFEVar, if_false) -> DFEVar:
        """2-way multiplexer: ``select ? if_true : if_false``."""
        if_false = self.as_var(if_false, if_true.type)
        out_t = unify(if_true.type, if_false.type)
        return self._add_node(
            "mux", out_t, (select.node_id, if_true.node_id, if_false.node_id)
        )

    def output(self, name: str, var: DFEVar) -> None:
        """Declare a stream output driven by *var*."""
        if name in self.outputs:
            raise SimulationError(f"duplicate output {name!r}")
        self.outputs[name] = var.node_id

    def as_var(self, value, type_: HWType) -> DFEVar:
        """Coerce a Python scalar to a constant node (pass DFEVars through)."""
        if isinstance(value, DFEVar):
            return value
        return self.constant(value, type_)

    # -- analysis ------------------------------------------------------------
    def pipeline_depth(self) -> int:
        """Longest latency path from any input to any output — the
        compiled kernel's cycle latency (MaxJ's scheduler balances all
        shorter paths with register chains)."""
        depth: dict[int, int] = {}
        for node in self.nodes:  # nodes are created in topological order
            base = max((depth[i] for i in node.inputs), default=0)
            depth[node.id] = base + node.latency
        return max((depth[i] for i in self.outputs.values()), default=0)

    def max_offset(self) -> int:
        """Deepest past offset (drives the warm-up prologue)."""
        return max(
            (n.payload for n in self.nodes if n.op == "offset"), default=0
        )

    def validate(self) -> None:
        """Structural checks before compilation."""
        if not self.outputs:
            raise SimulationError(f"kernel {self.name!r} has no outputs")
        for node in self.nodes:
            for dep in node.inputs:
                if dep >= node.id:
                    raise SimulationError(
                        "graph contains a combinational cycle"
                    )
