"""One way to build an access program: :func:`build` resolves a *spec*
(a registered lowering name such as ``"kernel.matmul"``, or a ready
:class:`~repro.program.ir.AccessProgram`) into a :class:`BuiltProgram`,
the program bound to its memories.

``docs/program_api.md`` lists the spec names and their parameters.

>>> import numpy as np
>>> from repro.program.builder import build
>>> a = np.arange(64, dtype=np.uint64).reshape(8, 8)
>>> built = build("kernel.matmul", a=a, b=a)
>>> bool(np.array_equal(built.run()["c"], a @ a))
True

A hand-rolled program chains :class:`~repro.program.ir.AccessProgram`'s
own op methods and binds its memory through ``mems=``:

>>> from repro.kernels.reduction import load_matrix
>>> from repro.program.ir import AccessProgram
>>> pm = load_matrix(a)
>>> program = (
...     AccessProgram("sum_rows")
...     .read("row", np.arange(8), np.zeros(8, int), tag="rows")
...     .compute(lambda env: {"s": env["rows"].sum(axis=1)}, label="sum")
... )
>>> bool(np.array_equal(build(program, mems=pm).run()["s"], a.sum(axis=1)))
True
"""

from __future__ import annotations

from typing import Any, Mapping

from ..core.exceptions import ProgramError
from .engine import ProgramResult, execute
from .ir import AccessProgram

__all__ = ["BuiltProgram", "SPEC_NAMES", "build"]


# ---------------------------------------------------------------------------
# the spec registry: every production lowering under one dotted namespace

def _kernel_matmul(*, a, b, p=2, q=4):
    from ..kernels.matmul import _matmul_program

    program, pm = _matmul_program(a, b, p, q)
    return program, {"default": pm}


def _kernel_stencil(*, image, weights, p=2, q=4):
    from ..kernels.stencil import _stencil_program

    program, pm = _stencil_program(image, weights, p, q)
    return program, {"default": pm}


def _kernel_jacobi(*, grid, iterations, p=2, q=4):
    from ..kernels.jacobi import _jacobi_program

    program, pm = _jacobi_program(grid, iterations, p, q)
    return program, {"default": pm}


def _kernel_transpose(*, matrix, p=2, q=4):
    from ..kernels.transpose import _transpose_program

    return _transpose_program(matrix, p, q)


def _kernel_reduce_rows(*, pm):
    from ..kernels.reduction import _reduce_rows_program

    return _reduce_rows_program(pm), {"default": pm}


def _kernel_reduce_columns(*, pm):
    from ..kernels.reduction import _reduce_columns_program

    return _reduce_columns_program(pm), {"default": pm}


def _schedule_accesses(*, schedule, memory=None):
    from ..schedule.executor import _schedule_program

    mems = {} if memory is None else {"default": memory}
    return _schedule_program(schedule), mems


def _stream_job(*, controller, job):
    # describe-only: the write stream's values arrive over wr_data at
    # simulation time, so no memory is bound
    return controller._job_program(job), {}


_SPECS = {
    "kernel.matmul": _kernel_matmul,
    "kernel.stencil": _kernel_stencil,
    "kernel.jacobi": _kernel_jacobi,
    "kernel.transpose": _kernel_transpose,
    "kernel.reduce_rows": _kernel_reduce_rows,
    "kernel.reduce_columns": _kernel_reduce_columns,
    "schedule.accesses": _schedule_accesses,
    "stream.job": _stream_job,
}

SPEC_NAMES = tuple(_SPECS)


class BuiltProgram:
    """A program bound to its memories.

    What :func:`build` returns: ``program`` is the lowered
    :class:`AccessProgram`, ``mems`` the memory-name mapping the spec
    produced (empty for describe-only programs).
    """

    __slots__ = ("program", "mems")

    def __init__(self, program: AccessProgram, mems: dict):
        self.program = program
        self.mems = mems

    def run(
        self,
        *,
        mems=None,
        env: Mapping[str, Any] | None = None,
        result_elements: int | None = None,
    ) -> ProgramResult:
        """Execute through the shared engine; keyword overrides only."""
        target = self.mems if mems is None else mems
        if isinstance(target, Mapping) and not target:
            raise ProgramError(
                f"program {self.program.name!r} has no bound memories "
                f"(describe-only spec?); pass mems=..."
            )
        return execute(
            self.program, target, env=env, result_elements=result_elements
        )

    def __repr__(self) -> str:
        return f"BuiltProgram({self.program.name!r}, mems={sorted(self.mems)})"


def build(spec, *, mems=None, **params) -> BuiltProgram:
    """Resolve *spec* into a :class:`BuiltProgram`.

    *spec* is a registered lowering name (:data:`SPEC_NAMES`, e.g.
    ``"kernel.matmul"``), whose factory takes ``**params``, or an
    :class:`AccessProgram`, bound as-is.  ``mems`` (one memory or a name
    mapping) overrides the spec's own binding.  The demo programs of
    ``repro program dump`` come from
    :func:`repro.program.lower.lower_demo`.
    """
    if isinstance(spec, AccessProgram):
        program, spec_mems = spec, {}
    elif isinstance(spec, str):
        factory = _SPECS.get(spec)
        if factory is None:
            raise ProgramError(
                f"unknown program spec {spec!r}: expected one of "
                f"{', '.join(SPEC_NAMES)}, or an AccessProgram"
            )
        program, spec_mems = factory(**params)
    else:
        raise ProgramError(
            f"cannot build from {type(spec).__name__}: expected a spec "
            f"name or an AccessProgram"
        )
    if mems is not None:
        spec_mems = dict(mems) if isinstance(mems, Mapping) else {"default": mems}
    return BuiltProgram(program, dict(spec_mems))
