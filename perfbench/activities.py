"""The four activities the benchmark times, and their output checks.

Each activity is what one kind of user does with the repository:

* :class:`CliCold` — a paper reproducer running ``repro`` commands, each
  in a fresh interpreter;
* :class:`DesignSweep` — design exploration in-process: validated Table
  III sweeps on every device backend and the backend what-if sweep;
* :class:`StreamSim` — the cycle-accurate STREAM flow of Fig. 9;
* :class:`KernelAccess` — library use of ``repro.program.build(...).run()``
  on the application kernels.

An activity sets itself up (:meth:`setup`: imports, design builds, cache
warm-up and a first untimed pass), then runs *passes*: one pass is a fixed
list of operations whose order and generated inputs come from the seed.
Every operation is checked against NumPy or against goldens captured when
the benchmark was added (``goldens/``); an exception or a failed check fails the
operation.  Host time covers the calls into the program only, never input
generation or checking.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext, redirect_stdout
from pathlib import Path

import numpy as np

from clock import PROBES_ENV, HostClock
from layers import INTERPRETER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDENS = HERE / "goldens"

#: a CLI child that runs longer than this counts as failed
CHILD_TIMEOUT_S = 150


class Outcomes:
    """Operations attempted and failed across a run."""

    def __init__(self, inject_fault: bool = False):
        self.attempted = 0
        self.failed = 0
        #: corrupt the first output that reaches a check (self-test only)
        self.inject_fault = inject_fault

    @contextmanager
    def op(self, what: str):
        """One checked operation; yields a list that collects problems."""
        self.attempted += 1
        problems: list[str] = []
        try:
            yield problems
        except Exception:  # noqa: BLE001 - any crash fails the operation
            problems.append(traceback.format_exc(limit=4))
        if problems:
            self.failed += 1
            print(f"perfbench: FAILED {what}: {problems[0]}", file=sys.stderr)

    def tamper(self, value):
        """*value*, corrupted once when fault injection is on."""
        if not self.inject_fault:
            return value
        self.inject_fault = False
        if isinstance(value, np.ndarray):
            value = value.copy()
            value.flat[0] += 1
            return value
        if isinstance(value, str):
            return value + "\ncorrupted"
        return value + 1


class Bench:
    """What every activity shares: seed, goldens, outcomes, scratch space."""

    def __init__(self, seed: int, goldens: Path = GOLDENS, inject_fault: bool = False,
                 tiny: bool = False):
        self.seed = seed
        self.goldens = Path(goldens)
        self.outcomes = Outcomes(inject_fault)
        self.tiny = tiny
        self._goldens: dict[str, dict] = {}
        #: golden values recorded instead of compared (``capture_goldens.py``)
        self.captured: dict[str, dict] | None = None
        #: the tracer of the pass in flight, None when untraced
        self.tracer = None
        self.clock = HostClock()
        self._children = itertools.count()
        work = ROOT / ".perfbench_run"
        work.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix=f"{os.getpid()}-", dir=work))
        os.environ.update(
            REPRO_CACHE_DIR=str(self.tmp / "cache"),
            MPLCONFIGDIR=str(self.tmp / "mpl"),
            XDG_CACHE_HOME=str(self.tmp / "xdg"),
            PYTHONPATH=str(SRC),
        )
        # the run ledger and the backend override change what commands do
        os.environ.pop("REPRO_LEDGER", None)
        os.environ.pop("REPRO_BACKEND", None)
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            self.tmp.parent.rmdir()
        except OSError:
            pass  # another run's scratch is still there

    def expect(self, problems: list[str], file: str, key: str, got) -> None:
        """Compare *got* with golden *file* [*key*] (or record it when
        capturing goldens)."""
        if self.captured is not None:
            self.captured.setdefault(file, {})[key] = got
            return
        if file not in self._goldens:
            self._goldens[file] = json.loads((self.goldens / file).read_text())
        want = self._goldens[file].get(key)
        if got != want:
            problems.append(f"{file}[{key}] = {got!r}, golden {want!r}")

    def span(self):
        """Attribute the benchmark's own work when traced."""
        return self.tracer.span() if self.tracer is not None else nullcontext()

    def run_child(self, cmd: list[str], env: dict | None = None):
        """Run a child process to completion; returns it with the (start,
        end) marks of its run.  The child probes the host itself."""
        env = dict(os.environ if env is None else env)
        probes = self.tmp / f"probes-{next(self._children)}.json"
        if self.clock.running:
            env[PROBES_ENV] = str(probes)
        with self.clock.paused():
            start = self.clock.mark()
            try:
                proc = subprocess.run(
                    cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                    timeout=CHILD_TIMEOUT_S,
                )
            finally:
                end = self.clock.mark()
        return proc, start, self.clock.merge(probes, end)

    def mark(self) -> tuple[float, float]:
        """Open or close a timed region (see :class:`HostClock`)."""
        return self.clock.mark()

    def scaled(self, interval) -> float:
        return self.clock.scaled(*interval)

    def median_scaled(self, intervals) -> float:
        return statistics.median(map(self.scaled, intervals)) if intervals else 0.0


def digest(obj) -> str:
    """A short, exact fingerprint of a JSON-able result."""
    text = json.dumps(obj, sort_keys=True, default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _plain(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return str(obj)


class Timings:
    """Timed runs of each repeated operation, and the work each one does.

    Rates divide the work of one run of each operation by the sum of their
    median scaled times, so every operation counts once whatever the run
    length.  Runs inside a traced pass carry wrapper overhead and are left
    out."""

    def __init__(self, bench: Bench):
        self.bench = bench
        self.intervals: dict[tuple, list[tuple[tuple, tuple]]] = {}
        self.work: dict[tuple, float] = {}

    def add(self, key: tuple, start: tuple, end: tuple, work: float) -> None:
        if self.bench.tracer is not None:
            return
        self.intervals.setdefault(key, []).append((start, end))
        self.work[key] = work

    def rate(self, *kinds: str) -> float:
        """Work per second over the operations whose key starts with one of
        *kinds*."""
        keys = [key for key in self.intervals if key[0] in kinds]
        seconds = sum(self.bench.median_scaled(self.intervals[key]) for key in keys)
        return sum(self.work[key] for key in keys) / seconds if seconds else 0.0


# ---------------------------------------------------------------------------
# cli_cold


class CliCold:
    """``repro`` commands with default flags, each in a fresh interpreter."""

    REFERENCE_PASSES = 2
    COMMANDS = {
        "experiments": ("experiments",),
        "dse": ("dse", "--figures"),
        "stream": ("stream", "--fig10"),
        "whatif": ("whatif",),
    }
    #: wrappers that must fire when the commands run traced; the scorecard's
    #: validation sweep (``validate_config``) runs in the cold-cache run only
    EXPECTED = (
        "cli.main",
        "experiments.run_scorecard",
        "experiments.render",
        "exec.run_sweep",
        "dse.explore",
        "dse.whatif_devices",
        "hw.default_model",
        "maxpolymem.validate_config",
        "backend.achieved_bandwidth.bram",
        "backend.achieved_bandwidth.dram",
        "backend.achieved_bandwidth.sharded",
        "backend.plan_layout",
    )

    def __init__(self, bench: Bench):
        self.bench = bench
        #: (start, end) marks of every plain run of each command
        self.walls: dict[str, list[tuple[tuple, tuple]]] = {
            name: [] for name in self.COMMANDS
        }
        #: (plain wall, traced wall) of each command run both ways
        self.pairs: list[tuple[float, float]] = []
        self.counters: dict[str, float] = {}
        self.env = dict(os.environ)

    def _fresh_cache(self) -> None:
        cache = tempfile.mkdtemp(prefix="cache-", dir=self.bench.tmp)
        self.env = dict(os.environ, REPRO_CACHE_DIR=cache)

    def setup(self) -> None:
        """A fresh private cache, warmed by one checked run of each command
        (which also warms the OS page cache)."""
        self._fresh_cache()
        for name in self.COMMANDS:
            self.run_command(name)

    def warm_in_process(self) -> None:
        """Warm a fresh cache by calling the CLI in this process (cheaper
        than children when the commands are only a reference pass)."""
        self._fresh_cache()
        from repro.cli import main

        saved = os.environ.get("REPRO_CACHE_DIR")
        os.environ["REPRO_CACHE_DIR"] = self.env["REPRO_CACHE_DIR"]
        try:
            for argv in self.COMMANDS.values():
                with open(os.devnull, "w") as sink, redirect_stdout(sink):
                    main(list(argv))
        finally:
            os.environ["REPRO_CACHE_DIR"] = saved

    def run_command(self, name: str, stats_path: Path | None = None):
        """Run one command in a fresh interpreter and check it; returns the
        (start, end) marks of the run, or None if it failed."""
        argv = self.COMMANDS[name]
        cmd = [sys.executable, str(HERE / "child.py")]
        cmd += ["run", *argv] if stats_path is None else ["cli", str(stats_path), *argv]
        with self.bench.outcomes.op(f"repro {' '.join(argv)}") as problems:
            proc, *marks = self.bench.run_child(cmd, env=self.env)
            self._check(name, proc, problems)
        return None if problems else marks

    def _check(self, name: str, proc, problems: list[str]) -> None:
        if proc.returncode != 0:
            problems.append(f"exit code {proc.returncode}: {proc.stderr[-400:]}")
            return
        out = self.bench.outcomes.tamper(proc.stdout)
        if name == "experiments":
            rows = [ln for ln in out.splitlines() if ln.startswith("  [")]
            if not rows or any(not ln.startswith("  [PASS]") for ln in rows):
                problems.append("a scorecard row is not ok")
        self.bench.expect(problems, "cli.json", name, stable_lines(out))

    def run_pass(self, rng, reference: bool = False) -> None:
        for idx in rng.permutation(len(self.COMMANDS)):
            name = list(self.COMMANDS)[idx]
            marks = self.run_command(name)
            if marks:
                self.walls[name].append(marks)

    def traced_pass(self, rng, tracer) -> None:
        """Each command once plain and once traced, in a seeded order; which
        of the two runs first alternates from one command to the next."""
        for idx in rng.permutation(len(self.COMMANDS)):
            name = list(self.COMMANDS)[idx]
            runs = {}
            for traced in (False, True) if len(self.pairs) % 2 else (True, False):
                runs[traced] = (self.traced_run(name, tracer) if traced
                                else self.run_command(name))
            plain, traced = runs[False], runs[True]
            if not (plain and traced):
                continue
            self.walls[name].append(plain)
            self.pairs.append((plain[1][0] - plain[0][0], traced[1][0] - traced[0][0]))

    def traced_run(self, name: str, tracer, cache_counters: bool = True):
        """Run one command traced in a fresh interpreter and add its stats
        and telemetry counters to the run's (the ``exec.cache.*`` ones only
        if *cache_counters*)."""
        stats = self.bench.tmp / f"stats-{name}.json"
        marks = self.run_command(name, stats_path=stats)
        if marks is None or not stats.exists():
            return marks
        wall = marks[1][0] - marks[0][0]
        data = json.loads(stats.read_text())
        stats.unlink()
        tracer.wall += wall
        tracer.merge(data)
        tracer.add(INTERPRETER, wall - data["lifetime"])
        for key, value in data["counters"].items():
            if cache_counters or not key.startswith("exec.cache."):
                self.counters[key] = self.counters.get(key, 0) + value
        return marks

    def traced_cold(self, tracer) -> None:
        """One traced ``repro experiments`` on an empty cache.  Only then do
        the scorecard's validation sweep and its scalar ticks run.  Its
        cache misses stay out of ``exec.cache.hit_rate``, which describes
        the warm runs."""
        warm = self.env
        self._fresh_cache()
        try:
            self.traced_run("experiments", tracer, cache_counters=False)
        finally:
            self.env = warm

    def e2e(self) -> dict[str, float]:
        return {
            f"cli_{name}_s": self.bench.median_scaled(runs)
            for name, runs in self.walls.items()
        }

    def import_probe(self, modules: str) -> float:
        """Median scaled wall of three fresh interpreters importing *modules*."""
        runs = []
        for _ in range(3):
            with self.bench.outcomes.op(f"import {modules}") as problems:
                proc, start, end = self.bench.run_child(
                    [sys.executable, str(HERE / "child.py"), "import", modules],
                    env=self.env,
                )
                if proc.returncode != 0:
                    problems.append(proc.stderr[-400:])
                else:
                    runs.append((start, end))
        return self.bench.median_scaled(runs)

    def layer_metrics(self, tracer, counters) -> dict[str, float]:
        base = self.import_probe("repro, repro.cli")
        with_dse = self.import_probe("repro, repro.cli, repro.dse")
        out = {"cli.import_s": base, "cli.import_dse_s": with_dse - base}
        for name, runs in self.walls.items():
            out[f"cli.{name}.work_s"] = self.bench.median_scaled(runs) - with_dse
        return out


def stable_lines(text: str) -> list[str]:
    """Output lines without the ones that print host timings."""
    return [ln for ln in text.splitlines() if not ln.startswith("sweep:")]


# ---------------------------------------------------------------------------
# design_sweep


class DesignSweep:
    """Validated Table III sweeps per backend and the backend what-if sweep."""

    #: (stride, words) of the what-if calls: the layout pass's cost grows
    #: with the address span.  Stride 1024 on 2**17 words would need a
    #: 2**27-word layout table (about 3 GB resident), so it is left out.
    WHATIF = tuple(
        (stride, words)
        for words in (1 << 14, 1 << 17)
        for stride in (1, 8, 64, 1024)
        if stride * words <= 1 << 24
    )
    EXPECTED = (
        "dse.explore",
        "dse.whatif_devices",
        "hw.default_model",
        "hw.estimate_many",
        "maxpolymem.validate_points_batch",
        "core.compile_plan_batch",
        "backend.achieved_bandwidth.bram",
        "backend.achieved_bandwidth.dram",
        "backend.achieved_bandwidth.sharded",
        "backend.plan_layout",
    )

    #: the reduced pass other workloads run, and how many times
    REFERENCE = (("explore", "vectis"), ("explore", "dram"),
                 ("whatif", (64, 1 << 14)), ("whatif", (8, 1 << 17)))
    REFERENCE_PASSES = 12

    def __init__(self, bench: Bench):
        self.bench = bench
        self.timings = Timings(bench)

    def setup(self) -> None:
        import repro.dse
        from repro.backend import backend_names

        self.dse = repro.dse
        self.backends = backend_names()
        for backend in self.backends:
            self.explore(backend)
        self.whatif(*self.WHATIF[0])
        self.timings = Timings(self.bench)

    def explore(self, backend: str) -> None:
        with self.bench.outcomes.op(f"explore(validate=True, backend={backend})") as problems:
            start = self.bench.mark()
            result = self.dse.explore(validate=True, backend=backend)
            self.timings.add(("explore", backend), start, self.bench.mark(),
                             len(result.points))
            with self.bench.span():
                payload = [
                    [p.config.label(), p.paper_mhz, p.model_mhz, p.logic_pct,
                     p.lut_pct, p.bram_pct, p.validated]
                    for p in result.points
                ]
                if not all(p.validated for p in result.points):
                    problems.append("a design point failed validation")
                got = self.bench.outcomes.tamper(digest(payload))
                self.bench.expect(problems, "design.json", f"explore/{backend}", got)

    def whatif(self, stride: int, n_words: int) -> None:
        with self.bench.outcomes.op(f"whatif_devices(stride={stride}, n={n_words})") as problems:
            start = self.bench.mark()
            rows = self.dse.whatif_devices(stride_words=stride, n_words=n_words)
            # three streams per backend: strided, laid out, sequential
            self.timings.add(("whatif", stride, n_words), start, self.bench.mark(),
                             3 * n_words * len(rows))
            with self.bench.span():
                got = self.bench.outcomes.tamper(digest([r.to_dict() for r in rows]))
                self.bench.expect(problems, "design.json", f"whatif/{stride}/{n_words}", got)

    def run_pass(self, rng, reference: bool = False) -> None:
        ops = [("explore", b) for b in self.backends]
        ops += [("whatif", c) for c in self.WHATIF
                if not self.bench.tiny or c[1] == 1 << 14]
        if reference:
            ops = list(self.REFERENCE)
        for idx in rng.permutation(len(ops)):
            kind, arg = ops[idx]
            if kind == "explore":
                self.explore(arg)
            else:
                self.whatif(*arg)

    def e2e(self) -> dict[str, float]:
        return {
            "dse_points_per_s": self.timings.rate("explore"),
            "whatif_words_per_s": self.timings.rate("whatif"),
        }

    def layer_metrics(self, tracer, counters) -> dict[str, float]:
        # the batched explore path counts every config as batched; each one
        # it cannot prove clean falls back to a scalar validate_config call
        configs = counters.get("dse.batch.configs", 0)
        scalar = tracer.stats["maxpolymem.validate_config"].calls
        return {"dse.batch.scalar_share": scalar / configs if configs else 0.0}


# ---------------------------------------------------------------------------
# stream_sim


class StreamSim:
    """Load -> app -> Offload on the Fig. 9 design, verified against NumPy."""

    #: Fig. 10 sizes of the smaller Copy runs, in twentieths of the band
    SMALL_COPY = (1, 4, 10)
    SETUP_VECTORS = 64
    #: the reduced pass other workloads run: Copy at 4/20 and 1/20 of the band
    REFERENCE = (4, 1)
    REFERENCE_PASSES = 20
    EXPECTED = (
        "maxeler.run_kernel",
        "stream_bench.load",
        "stream_bench.compute",
        "stream_bench.offload",
    )

    def __init__(self, bench: Bench):
        self.bench = bench
        self.timings = Timings(bench)
        self.copy_mbps = 0.0

    def setup(self) -> None:
        from repro.stream_bench import StreamHarness, all_apps
        from repro.stream_bench.apps import DEFAULT_SCALAR
        from repro.stream_bench.controller import build_stream_design
        from repro.stream_bench.harness import StreamMeasurement

        self.measurement = StreamMeasurement
        self.scalar = DEFAULT_SCALAR
        self.apps = {app.name: app for app in all_apps()}
        self.harness = StreamHarness(build_stream_design())
        for name in self.apps:
            self.run(name, self.SETUP_VECTORS, seed=self.bench.seed)
        self.timings = Timings(self.bench)

    def sizes(self) -> list[tuple[str, int]]:
        band = self.harness.max_vectors
        if self.bench.tiny:
            return [(name, self.SETUP_VECTORS) for name in self.apps]
        ops = [(name, band) for name in self.apps]
        return ops + [("Copy", band * f // 20) for f in self.SMALL_COPY]

    def run(self, app_name: str, vectors: int, seed: int) -> None:
        app = self.apps[app_name]
        harness = self.harness
        sim = harness.design.dfe.simulator
        with self.bench.outcomes.op(f"STREAM {app_name} x {vectors} (seed {seed})") as problems:
            before = sim.cycles
            start = self.bench.mark()
            arrays = harness.load_arrays(vectors, seed=seed)
            compute = harness.run_app(app, vectors, self.scalar)
            got = harness.offload_array(app.destination, vectors)
            end = self.bench.mark()
            total = sim.cycles - before
            self.timings.add(("sim", app_name, vectors), start, end, total)
            with self.bench.span():
                want = app.expected(arrays["a"], arrays["b"], arrays["c"], self.scalar)
                if not np.allclose(self.bench.outcomes.tamper(got), want, rtol=1e-12):
                    problems.append("offloaded array differs from NumPy")
                self.bench.expect(problems, "stream.json", f"{app_name}/{vectors}",
                                  [compute, total])
            if app_name == "Copy" and vectors == harness.max_vectors:
                self.copy_mbps = self.measurement(
                    app_name=app.name,
                    elements=vectors * harness.lanes,
                    runs=1,
                    cycles_per_run=compute,
                    clock_mhz=harness.design.dfe.clock_mhz,
                    host_overhead_ns=harness.design.dfe.board.pcie.call_overhead_ns,
                    bytes_per_element=app.bytes_per_element,
                    lanes=harness.lanes,
                ).mbps

    def run_pass(self, rng, reference: bool = False) -> None:
        ops = self.sizes()
        if reference:
            band = self.harness.max_vectors
            ops = [("Copy", band * f // 20) for f in self.REFERENCE]
        for idx in rng.permutation(len(ops)):
            name, vectors = ops[idx]
            self.run(name, vectors, seed=int(rng.integers(2**31)))

    def e2e(self) -> dict[str, float]:
        return {"sim_cycles_per_s": self.timings.rate("sim")}

    def layer_metrics(self, tracer, counters) -> dict[str, float]:
        return {"sim_copy_mbps": self.copy_mbps}


# ---------------------------------------------------------------------------
# kernel_access

#: (p, q) lane grids: 8, 16 and 64 lanes
LANE_GRIDS = ((2, 4), (4, 4), (8, 8))
READ_KERNELS = ("matmul", "stencil", "reduce_rows", "reduce_columns")
WRITE_KERNELS = ("transpose", "jacobi", "store")
#: shape variants: every pass runs each hot one twice and each fresh one
#: once per kernel and grid.  A fresh shape has been evicted from the
#: 64-entry kernel cache by the time it recurs, so the kernel and plan
#: caches see both hits and misses, and every run times the same shapes
HOT_VARIANTS = (0, 1)
FRESH_VARIANTS = (2, 3)


def kernel_shape(kernel: str, p: int, q: int, variant: int) -> tuple[int, ...]:
    """The input dimensions of *kernel* on a ``p x q`` grid.

    Variant 0 is the problem of ``benchmarks/bench_kernels.py`` on its 2x4
    grid (matmul 8x16 @ 16x16, the other kernels 16x32), scaled with the
    grid, and for the store the 512 (8 lanes) or 4096 (16 and 64 lanes)
    accesses of ``benchmarks/bench_access_throughput.py``.  Each further
    variant grows the first dimension by one alignment unit."""
    lanes = p * q
    d = variant
    if kernel == "matmul":  # (n, k, m): A is n x k, B is k x m
        return (4 * p + p * d, 2 * lanes, 2 * lanes)
    if kernel in ("stencil", "jacobi"):
        return (8 * p + p * d, 8 * q)
    if kernel == "reduce_rows":
        return (8 * p + lanes * d, 8 * q)
    if kernel == "reduce_columns":
        return (8 * p, 8 * q + lanes * d)
    if kernel == "transpose":
        return (8 * p + max(p, q) * d, 8 * q)
    if kernel == "store":  # (memory side, accesses)
        accesses = (512 if lanes == 8 else 4096) + 32 * d
        side = max(4 * lanes, 64)
        while (side // 2 // p) * (side // q) < accesses:
            side *= 2
        return (side, accesses)
    raise KeyError(kernel)


class KernelAccess:
    """``repro.program.build(spec, ...).run()`` over the read and write mixes."""

    JACOBI_ITERATIONS = 2
    #: other workloads run the first hot shape of every kernel and grid
    REFERENCE_PASSES = 14
    EXPECTED = (
        "core.new",
        "core.load",
        "program.build",
        "program.run",
        "program.compile",
        "program.fusion_plan",
        "program.execute",
        "kernels.matmul",
        "kernels.stencil",
        "kernels.jacobi",
        "kernels.transpose",
        "kernels.reduce_rows",
        "kernels.reduce_columns",
        "kernels.load_matrix",
    )

    def __init__(self, bench: Bench):
        self.bench = bench
        self.timings = Timings(bench)
        #: (dims, p, q) of a store shape -> its memory, anchors and image
        self._stores: dict[tuple, dict] = {}

    def setup(self) -> None:
        import repro.program
        from repro.core.config import PolyMemConfig
        from repro.core.patterns import PatternKind
        from repro.core.polymem import PolyMem
        from repro.core.schemes import Scheme
        from repro.kernels.jacobi import jacobi_reference
        import repro.kernels.reduction
        from repro.kernels.stencil import stencil_reference

        self.program = repro.program
        self.PolyMemConfig, self.PolyMem = PolyMemConfig, PolyMem
        self.PatternKind, self.Scheme = PatternKind, Scheme
        self.jacobi_reference = jacobi_reference
        self.stencil_reference = stencil_reference
        self.reduction = repro.kernels.reduction
        rng = np.random.default_rng(self.bench.seed)
        for p, q in LANE_GRIDS:
            for kernel in READ_KERNELS + WRITE_KERNELS:
                self.run(kernel, p, q, HOT_VARIANTS[0], rng)
        self.timings = Timings(self.bench)

    # -- one operation -------------------------------------------------------
    def run(self, kernel: str, p: int, q: int, variant: int, rng) -> int:
        """Generate inputs, build and run *kernel*, check it; returns cycles."""
        dims = kernel_shape(kernel, p, q, variant)
        key = f"{kernel}/{p}x{q}/{variant}"
        cycles = 0
        with self.bench.outcomes.op(f"kernel {key} {dims}") as problems:
            with self.bench.span():
                inputs = getattr(self, f"_inputs_{kernel}")(p, q, dims, rng)
            start = self.bench.mark()
            built, result = getattr(self, f"_run_{kernel}")(p, q, inputs)
            end = self.bench.mark()
            report = result.report
            self.timings.add((kernel, p, q, variant), start, end,
                             report.elements_accessed // (p * q))
            cycles = report.cycles
            with self.bench.span():
                if not getattr(self, f"_check_{kernel}")(inputs, built, result):
                    problems.append("output differs from its NumPy reference")
                self.bench.expect(problems, "kernels.json", key, cycles)
        return cycles

    def _ints(self, rng, shape, high=1 << 16):
        return rng.integers(0, high, size=shape, dtype=np.uint64)

    def _inputs_matmul(self, p, q, dims, rng):
        n, k, m = dims
        return {"a": self._ints(rng, (n, k)), "b": self._ints(rng, (k, m))}

    def _run_matmul(self, p, q, x):
        built = self.program.build("kernel.matmul", a=x["a"], b=x["b"], p=p, q=q)
        return built, built.run()

    def _check_matmul(self, x, built, result):
        return np.array_equal(self.bench.outcomes.tamper(result["c"]), x["a"] @ x["b"])

    def _inputs_stencil(self, p, q, dims, rng):
        # every weight non-zero: the tap set, hence the kernel, depends on
        # the shape only
        return {
            "image": rng.integers(0, 256, size=dims),
            "weights": rng.integers(1, 5, size=(3, 3)),
        }

    def _run_stencil(self, p, q, x):
        built = self.program.build(
            "kernel.stencil", image=x["image"], weights=x["weights"], p=p, q=q
        )
        return built, built.run()

    def _check_stencil(self, x, built, result):
        want = self.stencil_reference(x["image"], x["weights"])
        return np.array_equal(self.bench.outcomes.tamper(result["out"]), want)

    def _inputs_reduce_rows(self, p, q, dims, rng):
        return {"matrix": self._ints(rng, dims, high=1 << 20)}

    _inputs_reduce_columns = _inputs_reduce_rows

    def _run_reduce_rows(self, p, q, x):
        pm = self.reduction.load_matrix(x["matrix"], p, q)
        built = self.program.build("kernel.reduce_rows", pm=pm)
        return built, built.run()

    def _run_reduce_columns(self, p, q, x):
        pm = self.reduction.load_matrix(x["matrix"], p, q)
        built = self.program.build("kernel.reduce_columns", pm=pm)
        return built, built.run()

    def _check_reduce_rows(self, x, built, result):
        sums = self.bench.outcomes.tamper(result["sums"])
        return np.array_equal(sums, x["matrix"].sum(axis=1))

    def _check_reduce_columns(self, x, built, result):
        sums = self.bench.outcomes.tamper(result["sums"])
        return np.array_equal(sums, x["matrix"].sum(axis=0))

    def _inputs_transpose(self, p, q, dims, rng):
        return {"matrix": self._ints(rng, dims, high=1 << 62)}

    def _run_transpose(self, p, q, x):
        built = self.program.build("kernel.transpose", matrix=x["matrix"], p=p, q=q)
        return built, built.run()

    def _check_transpose(self, x, built, result):
        out = self.bench.outcomes.tamper(built.mems["dst"].dump())
        return np.array_equal(out, x["matrix"].T)

    def _inputs_jacobi(self, p, q, dims, rng):
        return {"grid": rng.uniform(0.0, 1.0, size=dims)}

    def _run_jacobi(self, p, q, x):
        built = self.program.build(
            "kernel.jacobi", grid=x["grid"], iterations=self.JACOBI_ITERATIONS, p=p, q=q
        )
        return built, built.run()

    def _check_jacobi(self, x, built, result):
        out = built.mems["default"].dump().view(np.float64)
        want = self.jacobi_reference(x["grid"], self.JACOBI_ITERATIONS)
        return np.array_equal(self.bench.outcomes.tamper(out), want)

    def _inputs_store(self, p, q, dims, rng):
        """A streaming store: lane-aligned ROW reads from the top half of
        the memory and RECTANGLE writes of distinct blocks in the bottom
        half, so no read sees a write.  The anchor stream and the memory of
        a shape are made once per run, so its fused kernel recurs.  The
        memory is built and loaded here, outside the timed region, so the
        store times its access traffic only; each check records the image
        the next run of the shape starts from."""
        side, accesses = dims
        lanes = p * q
        store = self._stores.get(dims + (p, q))
        if store is None:
            arng = np.random.default_rng([self.bench.seed, p, q, side, accesses])
            ri = arng.integers(0, side // 2, size=accesses)
            rj = arng.integers(0, side // lanes, size=accesses) * lanes
            nbj = side // q
            blocks = arng.permutation((side // 2 // p) * nbj)[:accesses]
            wi = side // 2 + (blocks // nbj) * p
            wj = (blocks % nbj) * q
            matrix = self._ints(rng, (side, side), high=1 << 62)
            pm = self.PolyMem(
                self.PolyMemConfig(side * side * 8, p=p, q=q, scheme=self.Scheme.ReRo,
                                   rows=side, cols=side)
            )
            pm.load(matrix)
            store = self._stores[dims + (p, q)] = {
                "pm": pm, "anchors": (ri, rj, wi, wj), "image": matrix,
            }
        store["pm"].reset_stats()
        return {"store": store, "values": self._ints(rng, (accesses, lanes), high=1 << 62)}

    def _run_store(self, p, q, x):
        ri, rj, wi, wj = x["store"]["anchors"]
        pm = x["store"]["pm"]
        kind = self.PatternKind
        program = (
            self.program.AccessProgram("store")
            .read(kind.ROW, ri, rj, tag="out")
            .write(kind.RECTANGLE, wi, wj, x["values"], fuse=True)
        )
        built = self.program.build(program, mems=pm)
        return built, built.run()

    def _check_store(self, x, built, result):
        store = x["store"]
        ri, rj, wi, wj = store["anchors"]
        matrix, values = store["image"], x["values"]
        p, q = built.mems["default"].config.p, built.mems["default"].config.q
        lanes = p * q
        reads = matrix[ri[:, None], rj[:, None] + np.arange(lanes)]
        want = matrix.copy()
        rows = wi[:, None, None] + np.arange(p)[None, :, None]
        cols = wj[:, None, None] + np.arange(q)[None, None, :]
        want[rows, cols] = values.reshape(-1, p, q)
        store["image"] = want
        out = self.bench.outcomes.tamper(result["out"])
        return np.array_equal(out, reads) and np.array_equal(
            built.mems["default"].dump(), want
        )

    # -- passes --------------------------------------------------------------
    def run_pass(self, rng, reference: bool = False) -> None:
        """Per grid and kernel: each hot shape twice, each fresh one once."""
        ops = []
        for p, q in LANE_GRIDS:
            for kernel in READ_KERNELS + WRITE_KERNELS:
                if reference or self.bench.tiny:
                    ops.append((kernel, p, q, HOT_VARIANTS[0]))
                    continue
                ops += [(kernel, p, q, v) for v in HOT_VARIANTS * 2 + FRESH_VARIANTS]
        for idx in rng.permutation(len(ops)):
            self.run(*ops[idx], rng)

    def e2e(self) -> dict[str, float]:
        return {
            "kernel_read_aps": self.timings.rate(*READ_KERNELS),
            "kernel_write_aps": self.timings.rate(*WRITE_KERNELS),
        }

    def layer_metrics(self, tracer, counters) -> dict[str, float]:
        rate = self.timings.rate
        return {
            "kernels.matmul.aps": rate("matmul"),
            "kernels.stencil.aps": rate("stencil"),
            "kernels.reduce.aps": rate("reduce_rows", "reduce_columns"),
            "kernels.transpose.aps": rate("transpose"),
            "kernels.jacobi.aps": rate("jacobi"),
            "kernels.store.aps": rate("store"),
        }


#: workload name -> the activity it measures
WORKLOADS = {
    "cli_cold": CliCold,
    "design_sweep": DesignSweep,
    "stream_sim": StreamSim,
    "kernel_access": KernelAccess,
}
