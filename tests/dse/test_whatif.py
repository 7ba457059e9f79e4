"""Tests for cross-device feasibility exploration."""

import dataclasses

from repro.core.schemes import Scheme
from repro.dse import whatif
from repro.dse.whatif import FeasibilityPoint, feasibility_frontier, max_capacity_kb
from repro.hw.fpga import VIRTEX6_LX240T, VIRTEX6_SX475T


class TestMaxCapacity:
    def test_paper_device_hosts_4mb(self):
        """The '4MB parallel memory' headline, from first principles."""
        assert max_capacity_kb(VIRTEX6_SX475T) == 4096

    def test_ports_halve_capacity(self):
        one = max_capacity_kb(VIRTEX6_SX475T, read_ports=1)
        two = max_capacity_kb(VIRTEX6_SX475T, read_ports=2)
        assert two == one // 2

    def test_smaller_device_smaller_memory(self):
        assert max_capacity_kb(VIRTEX6_LX240T) < max_capacity_kb(VIRTEX6_SX475T)

    def test_lanes_do_not_change_capacity(self):
        assert max_capacity_kb(VIRTEX6_SX475T, lanes=16) == max_capacity_kb(
            VIRTEX6_SX475T, lanes=8
        )


class TestFrontier:
    def test_grid_size(self):
        pts = feasibility_frontier(VIRTEX6_SX475T)
        assert len(pts) == 5 * 2 * 4
        assert all(isinstance(p, FeasibilityPoint) for p in pts)

    def test_paper_grid_feasible_on_paper_device(self):
        pts = {
            (p.capacity_kb, p.lanes, p.read_ports): p
            for p in feasibility_frontier(VIRTEX6_SX475T)
        }
        from repro.hw.calibration import TABLE_IV_COLUMNS

        for cap, lanes, ports in TABLE_IV_COLUMNS:
            assert pts[(cap, lanes, ports)].feasible, (cap, lanes, ports)

    def test_infeasible_points_flagged(self):
        pts = {
            (p.capacity_kb, p.lanes, p.read_ports): p
            for p in feasibility_frontier(VIRTEX6_SX475T)
        }
        assert not pts[(4096, 8, 2)].feasible
        assert not pts[(2048, 8, 4)].feasible

    def test_small_device_frontier_shrinks(self):
        big = sum(p.feasible for p in feasibility_frontier(VIRTEX6_SX475T))
        small = sum(p.feasible for p in feasibility_frontier(VIRTEX6_LX240T))
        assert small < big

    def test_custom_scheme(self):
        pts = feasibility_frontier(
            VIRTEX6_SX475T, scheme=Scheme.ReO, capacities_kb=(512,)
        )
        assert len(pts) == 2 * 4
        assert pts[0].bram_pct > 0

    def test_registered_device_reuses_default_model(self, monkeypatch):
        def refit(device):
            raise AssertionError(f"refit for registered {device.name}")

        monkeypatch.setattr(whatif, "SynthesisModel", refit)
        for device in (VIRTEX6_SX475T, VIRTEX6_LX240T):
            assert len(feasibility_frontier(device)) == 5 * 2 * 4

    def test_unregistered_device_gets_own_model(self, monkeypatch):
        custom = dataclasses.replace(VIRTEX6_SX475T, luts=VIRTEX6_SX475T.luts // 2)
        built = []
        real = whatif.SynthesisModel
        monkeypatch.setattr(
            whatif, "SynthesisModel", lambda d: built.append(d) or real(d)
        )
        assert len(feasibility_frontier(custom)) == 5 * 2 * 4
        assert built == [custom]
