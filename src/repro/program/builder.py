"""One builder surface for every access program:

* :func:`build` — resolve a *spec* (a registered lowering name such as
  ``"kernel.matmul"``, a demo name from :mod:`repro.program.lower`, a
  ready :class:`~repro.program.ir.AccessProgram`, or a
  :class:`ProgramBuilder`) into a :class:`BuiltProgram`: the program,
  its bound memories, and the default observers;
* :class:`ProgramBuilder` — a fluent, keyword-only construction API for
  hand-rolled programs (``ProgramBuilder("x").read(...).using(pm).run()``).

``docs/program_api.md`` lists the spec names and their parameters.

>>> import numpy as np
>>> from repro.program.builder import build
>>> a = np.arange(64, dtype=np.uint64).reshape(8, 8)
>>> built = build("kernel.matmul", a=a, b=a)
>>> bool(np.array_equal(built.run()["c"], a @ a))
True
"""

from __future__ import annotations

from typing import Any, Mapping

from ..core.exceptions import ProgramError
from .engine import ProgramResult, execute
from .ir import AccessProgram

__all__ = ["BuiltProgram", "ProgramBuilder", "SPEC_NAMES", "build"]


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


def _prf_operands(*, machine, regs):
    return machine._lower_operands(*regs), {"default": machine.rf.memory}


def _prf_store(*, machine, reg, values):
    return machine._lower_store(reg, values), {"default": machine.rf.memory}


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
    "prf.operands": _prf_operands,
    "prf.store": _prf_store,
    "schedule.accesses": _schedule_accesses,
    "stream.job": _stream_job,
}

SPEC_NAMES = tuple(_SPECS)


class BuiltProgram:
    """A program bound to its memories and execution defaults.

    What :func:`build` returns: ``program`` is the lowered
    :class:`AccessProgram`, ``mems`` the memory-name mapping the spec
    produced (empty for describe-only programs), ``observers`` the
    default :meth:`run` applies.
    """

    __slots__ = ("program", "mems", "observers")

    def __init__(self, program: AccessProgram, mems: dict, observers):
        self.program = program
        self.mems = mems
        self.observers = observers

    def compile(self):
        """The program's :class:`~repro.program.passes.CompiledProgram`."""
        from .passes import compile_program

        return compile_program(self.program)

    def run(
        self,
        *,
        mems=None,
        env: Mapping[str, Any] | None = None,
        result_elements: int | None = None,
        observers=None,
    ) -> ProgramResult:
        """Execute through the shared engine; keyword overrides only."""
        target = self.mems if mems is None else mems
        if isinstance(target, Mapping) and not target:
            raise ProgramError(
                f"program {self.program.name!r} has no bound memories "
                f"(describe-only spec?); pass mems=..."
            )
        return execute(
            self.program,
            target,
            observers=self.observers if observers is None else observers,
            env=env,
            result_elements=result_elements,
        )

    def __repr__(self) -> str:
        return f"BuiltProgram({self.program.name!r}, mems={sorted(self.mems)})"


class ProgramBuilder:
    """Fluent, keyword-only construction of hand-rolled programs.

    >>> import numpy as np
    >>> builder = ProgramBuilder("sum_rows")
    >>> _ = builder.read("row", np.arange(4), np.zeros(4, int), tag="rows")
    >>> _ = builder.compute(lambda env: {"s": env["rows"].sum()}, label="sum")
    >>> len(builder.program)
    2
    """

    def __init__(self, name: str, *, metadata: Mapping[str, Any] | None = None):
        self._program = AccessProgram(name, metadata=dict(metadata or {}))
        self._mems: dict[str, Any] = {}

    # -- op construction (keyword-only parameters) --------------------------
    def read(
        self, kind, anchors_i, anchors_j, *,
        port: int = 0, stride: int = 1, tag=None, mem: str = "default",
        fuse: bool = False,
    ) -> "ProgramBuilder":
        """Append a parallel-read stream."""
        self._program.read(
            kind, anchors_i, anchors_j, port=port, stride=stride, tag=tag,
            mem=mem, fuse=fuse,
        )
        return self

    def write(
        self, kind, anchors_i, anchors_j, *,
        values=None, stride: int = 1, mem: str = "default",
        fuse: bool = False,
    ) -> "ProgramBuilder":
        """Append a parallel-write stream."""
        self._program.write(
            kind, anchors_i, anchors_j, values=values, stride=stride,
            mem=mem, fuse=fuse,
        )
        return self

    def compute(self, fn, *, label: str = "compute") -> "ProgramBuilder":
        """Append a host-compute boundary."""
        self._program.compute(fn, label=label)
        return self

    def barrier(self, *, label: str = "barrier") -> "ProgramBuilder":
        """Append an explicit segment boundary."""
        self._program.barrier(label=label)
        return self

    # -- memory binding ------------------------------------------------------
    def using(self, memory=None, **named) -> "ProgramBuilder":
        """Bind memories: *memory* becomes ``"default"``, keywords bind
        named memories (``using(src=pm_a, dst=pm_b)``)."""
        if memory is not None:
            self._mems["default"] = memory
        self._mems.update(named)
        return self

    # -- products ------------------------------------------------------------
    @property
    def program(self) -> AccessProgram:
        return self._program

    def build(self, *, observers=()) -> BuiltProgram:
        return BuiltProgram(self._program, dict(self._mems), tuple(observers))

    def run(self, **kwargs) -> ProgramResult:
        """Build and execute in one call (see :meth:`BuiltProgram.run`)."""
        return self.build().run(**kwargs)


def build(
    spec,
    *,
    observers=(),
    mems=None,
    **params,
) -> BuiltProgram:
    """Resolve *spec* into a :class:`BuiltProgram`.

    *spec* is one of

    * a registered lowering name (:data:`SPEC_NAMES`, e.g.
      ``"kernel.matmul"``) — ``**params`` go to the spec's factory;
    * a demo name from :mod:`repro.program.lower` (e.g. ``"matmul"``) —
      the demo's canonical small instance, no parameters;
    * an :class:`AccessProgram` — bound as-is (pass ``mems=``);
    * a :class:`ProgramBuilder` — its program plus ``using()`` bindings.

    ``observers`` become the default of :meth:`BuiltProgram.run`;
    ``mems`` (one memory or a name mapping) overrides the spec's own
    binding.
    """
    if isinstance(spec, ProgramBuilder):
        built = spec.build(observers=observers)
        program, spec_mems = built.program, built.mems
    elif isinstance(spec, AccessProgram):
        program, spec_mems = spec, {}
    elif isinstance(spec, str):
        factory = _SPECS.get(spec)
        if factory is not None:
            program, spec_mems = factory(**params)
        else:
            from .lower import DEMO_NAMES, lower_demo

            if spec not in DEMO_NAMES:
                raise ProgramError(
                    f"unknown program spec {spec!r}: expected one of "
                    f"{', '.join(SPEC_NAMES + DEMO_NAMES)}, an "
                    f"AccessProgram, or a ProgramBuilder"
                )
            if params:
                raise ProgramError(
                    f"demo {spec!r} takes no parameters, got "
                    f"{sorted(params)}"
                )
            program, spec_mems = lower_demo(spec)
    else:
        raise ProgramError(
            f"cannot build from {type(spec).__name__}: expected a spec "
            f"name, an AccessProgram, or a ProgramBuilder"
        )
    if mems is not None:
        spec_mems = dict(mems) if isinstance(mems, Mapping) else {"default": mems}
    return BuiltProgram(program, dict(spec_mems), tuple(observers))
