"""Unit tests for the access-program IR and its pass pipeline."""

import numpy as np
import pytest

from repro.core.exceptions import ProgramError
from repro.core.patterns import PatternKind
from repro.program import (
    AccessProgram,
    Barrier,
    Compute,
    ParallelRead,
    ParallelWrite,
    compile_program,
    validate_program,
)

R = PatternKind.ROW
C = PatternKind.COLUMN
A4 = np.arange(4, dtype=np.int64)
Z4 = np.zeros(4, dtype=np.int64)


class TestIrConstruction:
    def test_builder_chains_and_counts(self):
        prog = (
            AccessProgram("demo")
            .read(R, A4, Z4, tag="x")
            .compute(lambda env: {"y": env["x"]}, label="id")
            .write(R, A4, Z4, values=np.zeros((4, 8), dtype=np.uint64))
            .barrier("done")
        )
        assert len(prog) == 4
        assert len(prog.access_ops) == 2
        assert prog.access_cycles == 8

    def test_scalar_anchors_broadcast(self):
        op = ParallelRead(R, 3, 5)
        assert op.n == 1
        assert op.block.families == ((R, 1),) and op.block.codes is None

    def test_anchor_length_mismatch(self):
        with pytest.raises(ProgramError):
            AccessProgram("bad").read(R, A4, np.zeros(3, dtype=np.int64))

    def test_per_cycle_kinds(self):
        op = ParallelRead([R, C, R, C], A4, Z4)
        assert op.block.families == ((R, 1), (C, 1))
        assert op.block.codes.dtype == np.int64
        assert op.block.codes.tolist() == [0, 1, 0, 1]
        assert [op.block.request(t).kind for t in range(op.n)] == [R, C, R, C]
        assert op.kind_label() == "row|column"

    def test_per_cycle_kind_count_mismatch(self):
        with pytest.raises(ProgramError):
            ParallelRead([R, C], A4, Z4)

    def test_validate_rejects_foreign_ops(self):
        prog = AccessProgram("bad")
        prog.ops.append("not-an-op")
        with pytest.raises(ProgramError):
            validate_program(prog)


class TestCoalescing:
    def test_same_port_reads_concatenate(self):
        """The matmul shape: ROW then COLUMN on port 0 become one
        heterogeneous trace."""
        prog = AccessProgram("mm").read(R, A4, Z4).read(C, A4, Z4)
        compiled = compile_program(prog)
        assert compiled.n_traces == 1
        (step,) = compiled.segments[0].steps
        assert step.n == 8

    def test_port_change_flushes(self):
        prog = AccessProgram("p").read(R, A4, Z4, port=0).read(R, A4, Z4, port=1)
        assert compile_program(prog).n_traces == 2

    def test_stride_change_flushes(self):
        prog = AccessProgram("s").read(R, A4, Z4).read(R, A4, Z4, stride=2)
        assert compile_program(prog).n_traces == 2

    def test_mem_change_flushes(self):
        prog = AccessProgram("m").read(R, A4, Z4).read(R, A4, Z4, mem="other")
        compiled = compile_program(prog)
        assert compiled.n_traces == 2
        assert compiled.mems == ("default", "other")

    def test_write_after_read_flushes(self):
        prog = (
            AccessProgram("wr")
            .read(R, A4, Z4)
            .write(R, A4, Z4, values=np.zeros((4, 8), dtype=np.uint64))
        )
        assert compile_program(prog).n_traces == 2

    def test_writes_concatenate(self):
        v = np.zeros((4, 8), dtype=np.uint64)
        prog = AccessProgram("ww").write(R, A4, Z4, values=v).write(
            R, A4, Z4, values=v
        )
        compiled = compile_program(prog)
        assert compiled.n_traces == 1
        (step,) = compiled.segments[0].steps
        assert step.n == 8 and step.write is not None

    def test_fused_reads_share_a_trace(self):
        prog = AccessProgram("f").read(R, A4, Z4, port=0).read(
            C, A4, Z4, port=1, fuse=True
        )
        compiled = compile_program(prog)
        assert compiled.n_traces == 1
        (step,) = compiled.segments[0].steps
        assert sorted(step.reads) == [0, 1]
        assert step.n == 4  # fused: parallel, not concatenated

    def test_fuse_needs_equal_lengths(self):
        prog = AccessProgram("f").read(R, A4, Z4, port=0).read(
            C, np.arange(3), np.zeros(3, dtype=np.int64), port=1, fuse=True
        )
        with pytest.raises(ProgramError):
            compile_program(prog)

    def test_fuse_needs_free_port(self):
        prog = AccessProgram("f").read(R, A4, Z4, port=0).read(
            C, A4, Z4, port=0, fuse=True
        )
        with pytest.raises(ProgramError):
            compile_program(prog)

    def test_fuse_without_open_group(self):
        prog = AccessProgram("f").read(R, A4, Z4, fuse=True)
        with pytest.raises(ProgramError):
            compile_program(prog)

    def test_fused_group_accepts_no_concat(self):
        prog = (
            AccessProgram("f")
            .read(R, A4, Z4, port=0)
            .read(C, A4, Z4, port=1, fuse=True)
            .read(R, A4, Z4, port=0)
        )
        assert compile_program(prog).n_traces == 2


class TestSegments:
    def test_compute_closes_segment(self):
        prog = (
            AccessProgram("seg")
            .read(R, A4, Z4, tag="x")
            .compute(lambda env: {}, label="mid")
            .read(R, A4, Z4, tag="y")
        )
        compiled = compile_program(prog)
        assert len(compiled.segments) == 2
        assert isinstance(compiled.segments[0].boundary, Compute)
        assert compiled.segments[1].boundary is None

    def test_barrier_closes_segment(self):
        prog = AccessProgram("seg").read(R, A4, Z4).barrier("b").read(R, A4, Z4)
        compiled = compile_program(prog)
        assert len(compiled.segments) == 2
        assert isinstance(compiled.segments[0].boundary, Barrier)

    def test_empty_program_compiles_to_one_segment(self):
        compiled = compile_program(AccessProgram("empty"))
        assert len(compiled.segments) == 1
        assert compiled.n_traces == 0
        assert compiled.access_cycles == 0

    def test_access_cycles_survive_compilation(self):
        prog = AccessProgram("n").read(R, A4, Z4).read(C, A4, Z4, port=1)
        assert compile_program(prog).access_cycles == prog.access_cycles == 8

    def test_describe_only_write_cannot_execute(self):
        prog = AccessProgram("d").write(R, A4, Z4)
        compiled = compile_program(prog)
        (step,) = compiled.segments[0].steps
        with pytest.raises(ProgramError, match="describe-only"):
            step.trace({})

    def test_ops_are_reprable(self):
        prog = (
            AccessProgram("r")
            .read(R, A4, Z4)
            .write(R, A4, Z4)
            .compute(lambda env: {}, label="c")
            .barrier("b")
        )
        for op in prog.ops:
            assert type(op).__name__ in repr(op) or repr(op)
        assert "AccessProgram" in repr(prog)
        assert isinstance(prog.ops[1], ParallelWrite)
