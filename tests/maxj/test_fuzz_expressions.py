"""Hypothesis fuzz: random MaxJ expression DAGs vs direct NumPy evaluation.

Builds random arithmetic graphs over float64 streams, compiles them, runs
them through the tick simulator, and checks every output element against
evaluating the same expression tree directly — exercising operator
plumbing, constant folding paths, pipeline timing and stream order at
once.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.maxeler import DFE, Manager, SinkKernel, SourceKernel
from repro.maxj import FLOAT64, KernelGraph, compile_graph

# safe float ops (no div -> no inf/nan surprises)
OPS = [
    ("+", lambda a, b: a + b),
    ("-", lambda a, b: a - b),
    ("*", lambda a, b: a * b),
]


@st.composite
def expression_plans(draw):
    """A plan: list of (op_index, left_ref, right_ref) building a DAG over
    two inputs (refs 0, 1) and previously built nodes."""
    n_nodes = draw(st.integers(1, 8))
    plan = []
    for k in range(n_nodes):
        max_ref = 1 + k  # inputs + nodes built so far
        plan.append(
            (
                draw(st.integers(0, len(OPS) - 1)),
                draw(st.integers(0, max_ref)),
                draw(st.integers(0, max_ref)),
            )
        )
    return plan


def build_both(plan):
    g = KernelGraph("fuzz")
    x = g.input("x", FLOAT64)
    y = g.input("y", FLOAT64)
    dsl_nodes = [x, y]
    py_nodes = [lambda a, b: a, lambda a, b: b]
    for op_idx, lref, rref in plan:
        name, fn = OPS[op_idx]
        dv = dsl_nodes[lref + 0]._bin(dsl_nodes[rref], name)
        dsl_nodes.append(dv)
        lf, rf = py_nodes[lref], py_nodes[rref]
        py_nodes.append(
            lambda a, b, fn=fn, lf=lf, rf=rf: fn(lf(a, b), rf(a, b))
        )
    g.output("out", dsl_nodes[-1])
    return g, py_nodes[-1]


@given(
    expression_plans(),
    st.lists(
        st.tuples(
            st.floats(-100, 100, allow_nan=False),
            st.floats(-100, 100, allow_nan=False),
        ),
        min_size=1,
        max_size=12,
    ),
)
@settings(max_examples=60, deadline=None)
def test_random_expression_dags(plan, pairs):
    graph, reference = build_both(plan)
    xs = [np.float64(a) for a, _ in pairs]
    ys = [np.float64(b) for _, b in pairs]

    mgr = Manager("fuzz")
    kernel = mgr.add_kernel(compile_graph(graph))
    sx = mgr.add_kernel(SourceKernel("sx", xs))
    sy = mgr.add_kernel(SourceKernel("sy", ys))
    snk = mgr.add_kernel(SinkKernel("snk"))
    mgr.connect(sx, "out", kernel, "x")
    mgr.connect(sy, "out", kernel, "y")
    mgr.connect(kernel, "out", snk, "in")
    DFE(mgr, 100).simulator.run()

    assert len(snk.collected) == len(pairs)
    for got, a, b in zip(snk.collected, xs, ys):
        want = reference(a, b)
        assert got == want or np.isclose(float(got), float(want), rtol=1e-12)
