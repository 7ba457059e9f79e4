"""Tests for the Fig. 9 STREAM design and controller."""

import numpy as np
import pytest

from repro.core.config import PolyMemConfig
from repro.core.exceptions import SimulationError
from repro.core.schemes import Scheme
from repro.stream_bench.controller import (
    Job,
    Mode,
    build_stream_design,
)


def small_design(read_ports=2, rows=12, cols=32):
    cfg = PolyMemConfig(
        rows * cols * 8,
        p=2,
        q=4,
        scheme=Scheme.RoCo,
        read_ports=read_ports,
        rows=rows,
        cols=cols,
    )
    return build_stream_design(cfg, clock_mhz=120)


class TestDesignStructure:
    def test_default_matches_paper(self):
        d = build_stream_design()
        assert d.config.scheme is Scheme.RoCo
        assert (d.config.p, d.config.q) == (2, 4)
        assert d.config.read_ports == 2
        assert d.dfe.clock_mhz == 120
        # three bands of 170 rows x 512 cols = the paper's array limit
        assert d.controller.band_rows == 170
        assert d.controller.band_capacity_vectors() * 8 * 8 == 170 * 512 * 8

    def test_fig9_kernel_inventory(self):
        d = build_stream_design()
        assert set(d.manager.kernels) == {"controller", "polymem", "mux", "demux"}

    def test_host_endpoints(self):
        d = build_stream_design()
        for name in ("job", "a_in", "b_in", "c_in"):
            assert d.manager.host_input(name) is not None
        for name in ("a_out", "b_out", "c_out"):
            assert d.manager.host_output(name) is not None

    def test_rejects_memory_too_small_for_three_arrays(self):
        cfg = PolyMemConfig(2 * 32 * 8, p=2, q=4, rows=2, cols=32, scheme=Scheme.RoCo)
        with pytest.raises(SimulationError, match="three arrays"):
            build_stream_design(cfg)

    def test_rejects_misaligned_columns(self):
        cfg = PolyMemConfig(12 * 28 * 8, p=2, q=4, rows=12, cols=28, scheme=Scheme.RoCo)
        with pytest.raises(SimulationError, match="multiple of the lane count"):
            build_stream_design(cfg)


class TestLoadOffloadRoundtrip:
    def test_load_then_offload(self):
        d = small_design()
        from repro.stream_bench.harness import StreamHarness

        h = StreamHarness(d)
        arrays = h.load_arrays(vectors=8)
        for idx, key in enumerate("abc"):
            got = h.offload_array(idx, 8)
            assert np.allclose(got, arrays[key]), key

    def test_band_overflow_rejected(self):
        d = small_design()
        ctrl = d.controller
        with pytest.raises(SimulationError, match="exceeds"):
            ctrl._band_slice(0, ctrl.band_capacity_vectors(), 1)

    def test_vec_anchor_layout(self):
        d = small_design()
        ctrl = d.controller

        def anchor(array, k):
            request = ctrl._band_slice(array, k, 1).request(0)
            assert request.kind is ctrl.ACCESS
            return request.i, request.j

        # 32 cols / 8 lanes = 4 vectors per row; band 1 starts at row 4
        assert anchor(0, 0) == (0, 0)
        assert anchor(0, 3) == (0, 24)
        assert anchor(0, 4) == (1, 0)
        assert anchor(1, 0) == (4, 0)
        assert anchor(2, 5) == (9, 8)


class TestComputeStages:
    def test_copy_moves_a_to_c(self):
        from repro.stream_bench.harness import StreamHarness
        from repro.stream_bench.apps import COPY

        h = StreamHarness(small_design())
        m = h.run(COPY, vectors=10)  # verify=True checks C == A
        assert m.cycles_per_run > 10

    def test_sum_needs_two_ports(self):
        from repro.stream_bench.harness import StreamHarness
        from repro.stream_bench.apps import SUM

        h = StreamHarness(small_design(read_ports=1))
        with pytest.raises(SimulationError, match="read ports"):
            h.run(SUM, vectors=4)

    def test_mode_enum_covers_fig9(self):
        assert {m.value for m in Mode} == {
            "load",
            "copy",
            "scale",
            "sum",
            "triad",
            "offload",
        }

    def test_job_defaults(self):
        j = Job(Mode.COPY, 10)
        assert j.array == 0 and j.scalar == 3.0
