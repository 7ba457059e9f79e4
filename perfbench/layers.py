"""Layer-attributed timing, recorded from the benchmark's own files.

The program under test is not edited: :class:`LayerTracer` replaces each
layer's public entry points (:data:`ENTRY_POINTS`) with timing wrappers
for the duration of a traced pass.  A function is also re-bound in every
``repro`` module that imported it by name (``from .x import f``), so the
wrapper sees the calls that go through those bindings; a wrapper that
still records zero calls on a workload where its layer runs is reported
by :meth:`LayerTracer.missing` and fails the traced run.

Each wrapper keeps its call count, inclusive time and self time (its
inclusive time minus the time of wrapped calls nested inside it).  A
layer's self time is the sum over its wrappers; whatever the traced wall
clock holds outside every wrapper is the *unattributed* residual.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

#: the modules under ``src/repro`` whose time the traced run attributes
LAYERS = (
    "cli",
    "experiments",
    "exec",
    "dse",
    "hw",
    "maxpolymem",
    "core",
    "backend",
    "maxeler",
    "stream_bench",
    "program",
    "kernels",
)

#: (wrapper name, layer, module, attribute path) of every wrapped entry point
ENTRY_POINTS = (
    ("cli.main", "cli", "repro.cli", "main"),
    ("experiments.run_scorecard", "experiments", "repro.experiments", "run_scorecard"),
    ("experiments.render", "experiments", "repro.exec.report", "Report.render"),
    ("exec.run_sweep", "exec", "repro.exec.runtime", "run_sweep"),
    ("dse.explore", "dse", "repro.dse.explore", "explore"),
    ("dse.whatif_devices", "dse", "repro.dse.whatif", "whatif_devices"),
    ("hw.default_model", "hw", "repro.hw.synthesis", "default_model"),
    ("hw.estimate_many", "hw", "repro.hw.synthesis", "SynthesisModel.estimate_many"),
    (
        "maxpolymem.validate_points_batch",
        "maxpolymem",
        "repro.maxpolymem.validation",
        "validate_points_batch",
    ),
    (
        "maxpolymem.validate_config",
        "maxpolymem",
        "repro.maxpolymem.validation",
        "validate_config",
    ),
    ("core.compile_plan_batch", "core", "repro.core.plan", "compile_plan_batch"),
    ("core.new", "core", "repro.core.polymem", "PolyMem.__init__"),
    ("core.load", "core", "repro.core.polymem", "PolyMem.load"),
    ("core.replay", "core", "repro.core.polymem", "PolyMem.replay"),
    (
        "backend.achieved_bandwidth.bram",
        "backend",
        "repro.backend.fpga",
        "FpgaBramBackend.achieved_bandwidth",
    ),
    (
        "backend.achieved_bandwidth.dram",
        "backend",
        "repro.backend.dram",
        "DramChannelBackend.achieved_bandwidth",
    ),
    (
        "backend.achieved_bandwidth.sharded",
        "backend",
        "repro.backend.sharded",
        "ShardedPolyMemBackend.achieved_bandwidth",
    ),
    ("backend.plan_layout", "backend", "repro.backend.layout", "plan_layout"),
    ("maxeler.run_kernel", "maxeler", "repro.maxeler.host", "Host.run_kernel"),
    (
        "stream_bench.load",
        "stream_bench",
        "repro.stream_bench.harness",
        "StreamHarness.load_arrays",
    ),
    (
        "stream_bench.compute",
        "stream_bench",
        "repro.stream_bench.harness",
        "StreamHarness.run_app",
    ),
    (
        "stream_bench.offload",
        "stream_bench",
        "repro.stream_bench.harness",
        "StreamHarness.offload_array",
    ),
    ("program.build", "program", "repro.program.builder", "build"),
    ("program.run", "program", "repro.program.builder", "BuiltProgram.run"),
    ("program.compile", "program", "repro.program.passes", "compile_program"),
    ("program.fusion_plan", "program", "repro.program.fuse", "fusion_plan"),
    ("program.execute", "program", "repro.program.engine", "execute"),
    ("kernels.matmul", "kernels", "repro.kernels.matmul", "_matmul_program"),
    ("kernels.stencil", "kernels", "repro.kernels.stencil", "_stencil_program"),
    ("kernels.jacobi", "kernels", "repro.kernels.jacobi", "_jacobi_program"),
    ("kernels.transpose", "kernels", "repro.kernels.transpose", "_transpose_program"),
    ("kernels.load_matrix", "kernels", "repro.kernels.reduction", "load_matrix"),
    (
        "kernels.reduce_rows",
        "kernels",
        "repro.kernels.reduction",
        "_reduce_rows_program",
    ),
    (
        "kernels.reduce_columns",
        "kernels",
        "repro.kernels.reduction",
        "_reduce_columns_program",
    ),
)

#: pseudo-layers of the traced table: the benchmark's own input generation
#: and output checks; in a traced CLI child, the import of the wrapped
#: modules, and the interpreter's start and exit around the child's code
BENCH = "bench"
IMPORT = "import"
INTERPRETER = "interpreter"
PSEUDO = (INTERPRETER, IMPORT, BENCH)


class Stat:
    """Calls, inclusive seconds and self seconds of one wrapped name."""

    __slots__ = ("layer", "calls", "inclusive", "self_time")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0
        self.inclusive = 0.0
        self.self_time = 0.0

    def to_dict(self) -> dict:
        return {
            "layer": self.layer,
            "calls": self.calls,
            "inclusive": self.inclusive,
            "self": self.self_time,
        }


def import_layers() -> None:
    """Import every module that defines a wrapped entry point."""
    for _, _, module, _ in ENTRY_POINTS:
        importlib.import_module(module)


class LayerTracer:
    """Wraps the entry points while installed; accumulates across installs."""

    def __init__(self):
        self.stats: dict[str, Stat] = {
            name: Stat(layer) for name, layer, _, _ in ENTRY_POINTS
        }
        for name in PSEUDO:
            self.stats[name] = Stat(name)
        #: wall seconds of the traced passes, and of wrapped time at the top
        #: of the call stack (never nested in another wrapper)
        self.wall = 0.0
        self.covered = 0.0
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- timing --------------------------------------------------------------
    def _enter(self) -> float:
        self._stack.append(0.0)
        return time.perf_counter()

    def _exit(self, stat: Stat, t0: float) -> None:
        dt = time.perf_counter() - t0
        nested = self._stack.pop()
        stat.calls += 1
        stat.inclusive += dt
        stat.self_time += dt - nested
        if self._stack:
            self._stack[-1] += dt
        else:
            self.covered += dt

    @contextmanager
    def span(self, name: str = BENCH):
        """Attribute a block of the benchmark's own work to pseudo-layer *name*."""
        t0 = self._enter()
        try:
            yield
        finally:
            self._exit(self.stats[name], t0)

    @contextmanager
    def traced(self):
        """Install the wrappers around one traced pass and time its wall."""
        self.install()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.wall += time.perf_counter() - t0
            self.uninstall()

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = enter()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(stat, t0)

        return wrapper

    # -- patching ------------------------------------------------------------
    def install(self) -> None:
        import_layers()
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "repro" or key.startswith("repro."))
        ]
        for name, _, module, path in ENTRY_POINTS:
            owner = sys.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original)
            self._patch(owner, attr, original, wrapper)
            if outer:
                continue
            # functions are also bound by name in every importing module
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original and mod is not owner:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------
    def missing(self, expected) -> list[str]:
        """Expected wrapper names that recorded no call."""
        return [name for name in expected if self.stats[name].calls == 0]

    def add(self, name: str, seconds: float) -> None:
        """Attribute *seconds* measured elsewhere to pseudo-layer *name*."""
        stat = self.stats[name]
        stat.calls += 1
        stat.inclusive += seconds
        stat.self_time += seconds
        self.covered += seconds

    def merge(self, data: dict) -> None:
        """Add the stats a traced child process reported (see :meth:`to_dict`)."""
        for name, row in data["stats"].items():
            stat = self.stats[name]
            stat.calls += row["calls"]
            stat.inclusive += row["inclusive"]
            stat.self_time += row["self"]
        self.covered += data["covered"]

    def to_dict(self) -> dict:
        return {
            "stats": {name: s.to_dict() for name, s in self.stats.items()},
            "covered": self.covered,
            "wall": self.wall,
        }

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer and pseudo-layer."""
        out = {layer: 0.0 for layer in (INTERPRETER, IMPORT, *LAYERS, BENCH)}
        for stat in self.stats.values():
            out[stat.layer] += stat.self_time
        return out

    def unattributed_share(self) -> float:
        return max(0.0, self.wall - self.covered) / self.wall if self.wall else 0.0

    def table(self, title: str) -> str:
        """The per-layer self-time table of one traced workload."""
        lines = [
            f"traced layer self time: {title} (wall {self.wall:.3f} s)",
            f"  {'layer':14s} {'self s':>9s} {'share':>7s} {'calls':>8s}",
        ]
        calls = {layer: 0 for layer in (INTERPRETER, IMPORT, *LAYERS, BENCH)}
        for stat in self.stats.values():
            calls[stat.layer] += stat.calls
        for layer, seconds in self.layer_self().items():
            share = seconds / self.wall if self.wall else 0.0
            lines.append(
                f"  {layer:14s} {seconds:9.4f} {share:7.1%} {calls[layer]:8d}"
            )
        rest = max(0.0, self.wall - self.covered)
        lines.append(
            f"  {'unattributed':14s} {rest:9.4f} {self.unattributed_share():7.1%}"
        )
        return "\n".join(lines)
