"""Pins for extensions that no paper number, command or workload reaches.

The PRF vector machine, runtime scheme switching and masked (partial)
accesses were deleted; these tests keep them from coming back unnoticed.
"""

import importlib

import pytest

from repro.cli import main
from repro.core.exceptions import ProgramError
from repro.core.polymem import PolyMem
from repro.program.builder import SPEC_NAMES, build


def test_prf_package_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.prf")


def test_prf_demo_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["program", "dump", "prf_vadd"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_prf_spec_is_unknown():
    with pytest.raises(ProgramError, match="unknown program spec") as exc:
        build("prf.operands", machine=None, regs=())
    for name in SPEC_NAMES:
        assert name in str(exc.value)


@pytest.mark.parametrize("name", ["reconfigure", "read_partial", "write_partial"])
def test_polymem_has_no_removed_api(name):
    assert not hasattr(PolyMem, name)
