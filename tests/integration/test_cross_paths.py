"""Integration: all four access paths agree bit-for-bit.

The same command sequence is executed through (1) the PolyMem batch fast
path, (2) the architectural step path, (3) the fused dataflow kernel, and
(4) the modular Fig. 3 pipeline; results and final memory contents must be
identical across all of them and match the NumPy reference.
"""

import numpy as np
import pytest

from repro.core.config import KB, PolyMemConfig
from repro.core.patterns import AccessPattern, PatternKind
from repro.core.plan import AccessBlock
from repro.core.polymem import PolyMem
from repro.core.schemes import SCHEME_SPECS, Scheme
from repro.maxpolymem import build_design


def generate_ops(scheme, p, q, rows, cols, n_ops, seed):
    """A random sequence of supported (write, read) operations."""
    rng = np.random.default_rng(seed)
    spec = SCHEME_SPECS[scheme]
    kinds = [
        e.kind
        for e in spec.supported
        if e.condition_holds(p, q) and e.anchor_constraint == "any"
    ]
    ops = []
    for k in range(n_ops):
        kind = kinds[rng.integers(len(kinds))]
        pat = AccessPattern(kind, p, q)
        h, w = pat.shape
        i = int(rng.integers(0, rows - h + 1))
        if kind is PatternKind.ANTI_DIAGONAL:
            j = int(rng.integers(w - 1, cols))
        else:
            j = int(rng.integers(0, cols - w + 1))
        is_write = bool(rng.integers(2))
        vals = rng.integers(0, 1 << 40, p * q).astype(np.uint64) if is_write else None
        ops.append((kind, i, j, vals))
    return ops


def run_reference(cfg, ops):
    ref = np.zeros((cfg.rows, cfg.cols), dtype=np.uint64)
    reads = []
    for kind, i, j, vals in ops:
        pat = AccessPattern(kind, cfg.p, cfg.q)
        ii, jj = pat.coordinates(i, j)
        if vals is not None:
            ref[ii, jj] = vals
        else:
            reads.append(ref[ii, jj].copy())
    return ref, reads


def run_step_path(cfg, ops):
    pm = PolyMem(cfg)
    reads = []
    for kind, i, j, vals in ops:
        if vals is not None:
            pm.write(kind, i, j, vals)
        else:
            reads.append(pm.read(kind, i, j))
    return pm.dump(), reads


def run_design_path(cfg, ops, style):
    design = build_design(cfg, style=style, clock_source="model")
    host = design.host()
    out = design.dfe.manager.host_output("rd_out0")
    reads = []
    for kind, i, j, vals in ops:
        if vals is not None:
            host.write_stream("wr_cmd", AccessBlock(kind, [i], [j], values=[vals]))
            host.run_kernel(max_cycles=1000)
        else:
            host.write_stream("rd_cmd0", AccessBlock(kind, [i], [j]))
            host.run_kernel(until=lambda: len(out) == 1, max_cycles=1000)
            reads.append(np.asarray(host.read_stream("rd_out0")[0]))
    memory = design.kernel.memory if style == "fused" else None
    dump = (
        memory.dump()
        if memory is not None
        else _dump_modular(design)
    )
    return dump, reads


def _dump_modular(design):
    """Reconstruct the logical contents from the modular banks kernel."""
    from repro.core.addressing import AddressingFunction
    from repro.core.schemes import flat_module_assignment

    cfg = design.config
    banks = design.modular.banks.banks
    ii, jj = np.mgrid[0 : cfg.rows, 0 : cfg.cols]
    bank_ids = flat_module_assignment(cfg.scheme, ii, jj, cfg.p, cfg.q)
    addrs = AddressingFunction(cfg.rows, cfg.cols, cfg.p, cfg.q)(ii, jj)
    return banks.read(0, bank_ids, addrs)


@pytest.mark.parametrize("scheme", [Scheme.ReRo, Scheme.ReCo, Scheme.ReTr])
@pytest.mark.parametrize("seed", [0, 1])
def test_all_paths_agree(scheme, seed):
    cfg = PolyMemConfig(4 * KB, p=2, q=4, scheme=scheme)
    ops = generate_ops(scheme, 2, 4, cfg.rows, cfg.cols, n_ops=20, seed=seed)
    ref_mem, ref_reads = run_reference(cfg, ops)
    for runner in (
        run_step_path,
        lambda c, o: run_design_path(c, o, "fused"),
        lambda c, o: run_design_path(c, o, "modular"),
    ):
        mem, reads = runner(cfg, ops)
        assert (mem == ref_mem).all()
        assert len(reads) == len(ref_reads)
        for got, want in zip(reads, ref_reads):
            assert (np.asarray(got) == want).all()


def test_batch_path_agrees_with_step_path():
    cfg = PolyMemConfig(4 * KB, p=2, q=4, scheme=Scheme.ReRo)
    pm_step, pm_batch = PolyMem(cfg), PolyMem(cfg)
    rng = np.random.default_rng(3)
    anchors_i = rng.integers(0, cfg.rows - 2, 50)
    anchors_j = (rng.integers(0, cfg.cols // 4 - 1, 50)) * 4
    vals = rng.integers(0, 1 << 40, (50, 8)).astype(np.uint64)
    for k in range(50):
        pm_step.write(PatternKind.RECTANGLE, int(anchors_i[k]), int(anchors_j[k]), vals[k])
    # batch path needs non-overlapping writes for identical semantics; use
    # last-write-wins sequences only when they match: replay sequentially
    for k in range(50):
        pm_batch.write_batch(
            PatternKind.RECTANGLE,
            anchors_i[k : k + 1],
            anchors_j[k : k + 1],
            vals[k : k + 1],
        )
    assert (pm_step.dump() == pm_batch.dump()).all()
    out_step = np.stack(
        [pm_step.read(PatternKind.ROW, int(i), 0) for i in range(cfg.rows)]
    )
    out_batch = pm_batch.read_batch(
        PatternKind.ROW, np.arange(cfg.rows), np.zeros(cfg.rows, dtype=np.int64)
    )
    assert (out_step == out_batch).all()
