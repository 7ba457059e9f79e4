"""The builder surface: ``repro.program.build`` is the one entry point
for program construction."""

import numpy as np
import pytest

from repro.core.exceptions import ProgramError
from repro.core.patterns import PatternKind
from repro.program import BuiltProgram, ProgramBuilder, SPEC_NAMES, build


def _matrix(n=8):
    return np.arange(n * n, dtype=np.uint64).reshape(n, n)


class TestBuild:
    def test_kernel_spec_runs(self):
        a = _matrix()
        built = build("kernel.matmul", a=a, b=a)
        assert isinstance(built, BuiltProgram)
        assert np.array_equal(built.run()["c"], a @ a)

    def test_demo_name_resolves(self):
        built = build("matmul")
        res = built.run()
        assert res.report.cycles == built.compile().access_cycles

    def test_demo_rejects_parameters(self):
        with pytest.raises(ProgramError, match="takes no parameters"):
            build("matmul", a=_matrix())

    def test_unknown_spec(self):
        with pytest.raises(ProgramError, match="unknown program spec"):
            build("kernel.nope")

    def test_describe_only_spec_refuses_to_run(self):
        from repro.program.lower import lower_demo

        program, _ = lower_demo("stream_copy")
        built = build(program)
        assert built.mems == {}
        with pytest.raises(ProgramError, match="no bound memories"):
            built.run()

    def test_spec_names_all_resolve(self):
        assert "kernel.matmul" in SPEC_NAMES
        assert len(SPEC_NAMES) == len(set(SPEC_NAMES))


class TestProgramBuilder:
    def test_fluent_build_and_run(self):
        from repro.kernels.reduction import load_matrix

        pm = load_matrix(_matrix())
        n = pm.rows
        ai = np.arange(n, dtype=np.int64)
        aj = np.zeros(n, dtype=np.int64)
        res = (
            ProgramBuilder("rows")
            .read(PatternKind.ROW, ai, aj, tag="rows")
            .compute(lambda env: {"s": env["rows"].sum(axis=1)}, label="sum")
            .using(pm)
            .run()
        )
        assert np.array_equal(res["s"], _matrix().sum(axis=1))

    def test_build_through_build(self):
        builder = ProgramBuilder("empty").barrier()
        built = build(builder)
        assert built.program is builder.program
        assert len(built.program) == 1
