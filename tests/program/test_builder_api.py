"""The builder surface: ``repro.program.build`` is the one entry point
for program construction."""

import numpy as np
import pytest

from repro.core.exceptions import ProgramError
from repro.program import BuiltProgram, SPEC_NAMES, build


def _matrix(n=8):
    return np.arange(n * n, dtype=np.uint64).reshape(n, n)


class TestBuild:
    def test_kernel_spec_runs(self):
        a = _matrix()
        built = build("kernel.matmul", a=a, b=a)
        assert isinstance(built, BuiltProgram)
        assert np.array_equal(built.run()["c"], a @ a)

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

