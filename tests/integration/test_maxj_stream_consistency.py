"""Integration: STREAM arithmetic expressed in the MaxJ DSL matches the
stream_bench implementation element for element."""

import numpy as np
import pytest

from repro.maxeler import DFE, Manager, SinkKernel, SourceKernel
from repro.maxj import FLOAT64, KernelGraph, compile_graph
from repro.stream_bench import SCALE, SUM, TRIAD


def run_two_input(graph, xs, ys):
    mgr = Manager(graph.name)
    k = mgr.add_kernel(compile_graph(graph))
    names = list(graph.inputs)
    for name, vals in zip(names, (xs, ys)[: len(names)]):
        src = mgr.add_kernel(SourceKernel(f"src_{name}", vals))
        mgr.connect(src, "out", k, name)
    snk = mgr.add_kernel(SinkKernel("snk"))
    mgr.connect(k, next(iter(graph.outputs)), snk, "in")
    DFE(mgr, 120).simulator.run()
    return np.array(snk.collected)


@pytest.fixture
def vectors():
    rng = np.random.default_rng(11)
    return rng.uniform(1, 2, 64), rng.uniform(1, 2, 64)


def test_scale_graph_matches_app(vectors):
    b, _ = vectors
    q = 3.0
    g = KernelGraph("scale")
    xb = g.input("b", FLOAT64)
    g.output("a", g.constant(q, FLOAT64) * xb)
    got = run_two_input(g, list(b), None)
    want = SCALE.expected(None, b, None, q)
    assert np.allclose(got, want)


def test_sum_graph_matches_app(vectors):
    b, c = vectors
    g = KernelGraph("sum")
    xb = g.input("b", FLOAT64)
    xc = g.input("c", FLOAT64)
    g.output("a", xb + xc)
    got = run_two_input(g, list(b), list(c))
    assert np.allclose(got, SUM.expected(None, b, c, 3.0))


def test_triad_graph_matches_app(vectors):
    b, c = vectors
    q = 3.0
    g = KernelGraph("triad")
    xb = g.input("b", FLOAT64)
    xc = g.input("c", FLOAT64)
    g.output("a", xb + g.constant(q, FLOAT64) * xc)
    got = run_two_input(g, list(b), list(c))
    assert np.allclose(got, TRIAD.expected(None, b, c, q))


def test_triad_pipeline_depth_is_mul_plus_add():
    g = KernelGraph("triad")
    xb = g.input("b", FLOAT64)
    xc = g.input("c", FLOAT64)
    g.output("a", xb + g.constant(3.0, FLOAT64) * xc)
    assert g.pipeline_depth() == 3  # mul(2) + add(1)
