"""Shared fixtures for the PolyMem test suite."""

import numpy as np
import pytest

from repro.core.config import KB, PolyMemConfig
from repro.core.polymem import PolyMem
from repro.core.schemes import Scheme


@pytest.fixture(autouse=True)
def _hermetic_result_cache(tmp_path_factory, monkeypatch):
    """Point the repro.exec default cache at a per-session tmp dir, so CLI
    invocations under test never touch the user's real ~/.cache."""
    monkeypatch.setenv(
        "REPRO_CACHE_DIR",
        str(tmp_path_factory.getbasetemp() / "repro-exec-cache"),
    )


@pytest.fixture(params=["scalar", "batched"])
def tick_path(request):
    """Run the test once on the simulator's scalar reference path (chunk
    planning off) and once on the batched engine."""
    if request.param == "batched":
        yield request.param
        return
    from repro.maxeler.simulator import scalar_reference

    with scalar_reference():
        yield request.param


#: lane grids covering the paper's DSE (2x4, 2x8) plus edge geometries
LANE_GRIDS = [(2, 4), (2, 8), (4, 2), (2, 2), (4, 4)]

#: all five schemes in paper order
ALL_SCHEMES = list(Scheme)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_config():
    """A small ReRo PolyMem, quick enough for exhaustive checks."""
    return PolyMemConfig(4 * KB, p=2, q=4, scheme=Scheme.ReRo)


@pytest.fixture
def small_polymem(small_config):
    return PolyMem(small_config)


@pytest.fixture
def loaded_polymem(small_polymem):
    """A small PolyMem pre-loaded with unique values (value == flat index)."""
    pm = small_polymem
    matrix = np.arange(pm.rows * pm.cols, dtype=np.uint64).reshape(pm.rows, pm.cols)
    pm.load(matrix)
    return pm, matrix


def make_polymem(scheme, p=2, q=4, capacity=4 * KB, read_ports=1):
    """Helper used across test modules."""
    cfg = PolyMemConfig(capacity, p=p, q=q, scheme=scheme, read_ports=read_ports)
    return PolyMem(cfg)
