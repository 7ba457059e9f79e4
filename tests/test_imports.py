"""The import surface: lazy package inits and the layers a command loads."""

import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro

PACKAGES = ["repro"] + [
    f"repro.{m.name}" for m in pkgutil.iter_modules(repro.__path__) if m.ispkg
]

#: public names that share their name with a submodule of the same package
COLLIDING = [
    ("repro.dse", "explore"),
    ("repro.kernels", "matmul"),
    ("repro.kernels", "transpose"),
    ("repro.schedule", "customize"),
    ("repro.telemetry", "regress"),
]

#: run one CLI command in a fresh interpreter, then print the repro
#: modules it loaded
PROBE = """
import contextlib, io, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    rc = main(sys.argv[1:])
print(" ".join(m for m in sys.modules if m == "repro" or m.startswith("repro.")))
sys.exit(rc)
"""


def _loaded_modules(argv, tmp_path) -> set[str]:
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "REPRO_LEDGER"}
    env.update(
        PYTHONPATH=os.pathsep.join([src, env.get("PYTHONPATH", "")]),
        REPRO_CACHE_DIR=str(tmp_path / "cache"),
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize(
    "argv, absent",
    [
        (
            ["info"],
            ["repro.program", "repro.dse", "repro.exec", "repro.maxeler",
             "repro.backend"],
        ),
        (
            ["whatif"],
            ["repro.program", "repro.maxpolymem", "repro.stream_bench",
             "repro.telemetry.ledger"],
        ),
        (
            # Fig. 10 is closed-form: no Fig. 9 design, no simulator
            ["stream", "--fig10"],
            ["repro.stream_bench.controller", "repro.maxeler",
             "repro.maxpolymem", "repro.core.polymem", "repro.program"],
        ),
        (
            # cold cache: the validation grid may simulate, STREAM may
            # not, and the fused kernel's chunk proof needs no program IR
            ["experiments"],
            ["repro.stream_bench.controller", "repro.program"],
        ),
    ],
)
def test_command_loads_only_its_layers(argv, absent, tmp_path):
    _assert_absent(argv, _loaded_modules(argv, tmp_path), absent)


def test_warm_scorecard_loads_no_simulator(tmp_path):
    _loaded_modules(["experiments"], tmp_path)
    loaded = _loaded_modules(["experiments"], tmp_path)
    _assert_absent(
        ["experiments"],
        loaded,
        ["repro.stream_bench.controller", "repro.maxeler.simulator",
         "repro.maxpolymem.kernel", "repro.core.polymem"],
    )


def _assert_absent(argv, loaded, absent) -> None:
    assert "repro.cli" in loaded
    extra = sorted(
        m for m in loaded
        if any(m == layer or m.startswith(layer + ".") for layer in absent)
    )
    assert extra == [], f"repro {' '.join(argv)} loaded {extra}"


@pytest.mark.parametrize("package", PACKAGES)
def test_every_public_name_resolves_and_is_listed(package):
    pkg = importlib.import_module(package)
    listed = dir(pkg)
    for name in pkg.__all__:
        getattr(pkg, name)
        assert name in listed


@pytest.mark.parametrize("package", PACKAGES)
def test_resolved_names_are_not_cached(package):
    pkg = importlib.import_module(package)
    for name in pkg.__all__:
        getattr(pkg, name)
    cached = [n for n in pkg.__all__ if n in vars(pkg) and n != "__version__"]
    assert cached == []


@pytest.mark.parametrize("package, name", COLLIDING)
def test_colliding_name_is_the_function_after_submodule_import(package, name):
    submodule = importlib.import_module(f"{package}.{name}")
    pkg = importlib.import_module(package)
    value = getattr(pkg, name)
    assert not isinstance(value, types.ModuleType)
    assert value is getattr(submodule, name)
    assert value is getattr(importlib.import_module(package), name)


def test_rebinding_in_the_defining_module_shows_through_the_package(monkeypatch):
    import repro.dse
    import repro.dse.whatif

    sentinel = object()
    monkeypatch.setattr(repro.dse.whatif, "whatif_devices", sentinel)
    assert repro.dse.whatif_devices is sentinel
