"""Unit tests for the shuffle networks (crossbars and Benes)."""

import numpy as np
import pytest

from repro.core.exceptions import PatternError, SimulationError
from repro.core.shuffle import (
    BenesNetwork,
    FullCrossbar,
    InverseShuffle,
    Shuffle,
    permutation_from_banks,
)


class TestPermutationFromBanks:
    def test_valid(self):
        perm = permutation_from_banks(np.array([2, 0, 1, 3]))
        assert perm.tolist() == [2, 0, 1, 3]

    def test_duplicate_rejected(self):
        with pytest.raises(SimulationError):
            permutation_from_banks(np.array([0, 0, 1, 2]))

    def test_out_of_range_rejected(self):
        with pytest.raises(SimulationError):
            permutation_from_banks(np.array([0, 1, 4, 2]))

    def test_2d_rejected(self):
        with pytest.raises(PatternError):
            permutation_from_banks(np.zeros((2, 2), int))


class TestShuffle:
    def test_scatter_semantics(self):
        sh = Shuffle(4)
        out = sh(np.array([10, 20, 30, 40]), np.array([2, 0, 3, 1]))
        # out[banks[k]] = in[k]
        assert out.tolist() == [20, 40, 10, 30]

    def test_inverse_gather_semantics(self):
        inv = InverseShuffle(4)
        out = inv(np.array([10, 20, 30, 40]), np.array([2, 0, 3, 1]))
        # out[k] = in[banks[k]]
        assert out.tolist() == [30, 10, 40, 20]

    def test_inverse_undoes_shuffle(self, rng):
        sh, inv = Shuffle(8), InverseShuffle(8)
        for _ in range(20):
            perm = rng.permutation(8)
            v = rng.integers(0, 100, 8)
            assert (inv(sh(v, perm), perm) == v).all()

    def test_batched(self, rng):
        sh = Shuffle(8)
        banks = np.stack([rng.permutation(8) for _ in range(5)])
        vals = rng.integers(0, 100, (5, 8))
        out = sh(vals, banks)
        for r in range(5):
            assert (out[r] == sh(vals[r], banks[r])).all()

    def test_batched_inverse(self, rng):
        sh, inv = Shuffle(8), InverseShuffle(8)
        banks = np.stack([rng.permutation(8) for _ in range(5)])
        vals = rng.integers(0, 100, (5, 8))
        assert (inv(sh(vals, banks), banks) == vals).all()

    def test_shape_mismatch(self):
        sh = Shuffle(4)
        with pytest.raises(PatternError):
            sh(np.zeros((2, 4)), np.zeros((3, 4), int))

    def test_conflicting_signal_rejected(self):
        sh = Shuffle(4)
        with pytest.raises(SimulationError):
            sh(np.arange(4), np.array([0, 0, 1, 2]))

    def test_bad_lanes(self):
        with pytest.raises(PatternError):
            Shuffle(0)


class TestFullCrossbar:
    def test_is_a_shuffle(self, rng):
        xb, sh = FullCrossbar(8), Shuffle(8)
        perm = rng.permutation(8)
        v = rng.integers(0, 100, 8)
        assert (xb(v, perm) == sh(v, perm)).all()

    def test_cost_quadratic(self):
        c8 = FullCrossbar(8).cost()
        c16 = FullCrossbar(16).cost()
        # n(n-1) growth: 16 lanes cost ~4.3x the 8-lane crossbar
        assert c16.lut_estimate / c8.lut_estimate == pytest.approx(
            (16 * 15) / (8 * 7), rel=1e-9
        )
        assert c8.stages == 1

    def test_width_scales_cost(self):
        assert FullCrossbar(8, 32).cost().lut_estimate * 2 == FullCrossbar(
            8, 64
        ).cost().lut_estimate


class TestBenesNetwork:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
    def test_equivalent_to_crossbar(self, n, rng):
        bn, sh = BenesNetwork(n), Shuffle(n)
        for _ in range(10):
            perm = rng.permutation(n)
            v = rng.integers(0, 10_000, n)
            assert (bn(v, perm) == sh(v, perm)).all()

    def test_identity_and_reversal(self):
        bn = BenesNetwork(8)
        v = np.arange(8)
        assert (bn(v, np.arange(8)) == v).all()
        rev = np.arange(8)[::-1]
        out = np.empty(8, int)
        out[rev] = v
        assert (bn(v, rev) == out).all()

    def test_non_power_of_two_rejected(self):
        with pytest.raises(PatternError):
            BenesNetwork(6)

    @pytest.mark.parametrize("n,stages", [(2, 1), (4, 3), (8, 5), (16, 7)])
    def test_stage_count(self, n, stages):
        assert BenesNetwork(n).num_stages == stages
        assert len(BenesNetwork(n).route(np.arange(n))) == stages

    def test_cost_subquadratic(self):
        b = BenesNetwork(64).cost()
        x = FullCrossbar(64).cost()
        assert b.lut_estimate < x.lut_estimate
        assert b.stages > x.stages  # latency trade-off

    def test_exhaustive_n4(self):
        """All 24 permutations of a 4-lane network route correctly."""
        import itertools

        bn, sh = BenesNetwork(4), Shuffle(4)
        v = np.array([10, 20, 30, 40])
        for perm in itertools.permutations(range(4)):
            perm = np.array(perm)
            assert (bn(v, perm) == sh(v, perm)).all(), perm

    def test_batch_falls_back_to_direct(self, rng):
        bn = BenesNetwork(4)
        banks = np.stack([rng.permutation(4) for _ in range(3)])
        vals = rng.integers(0, 100, (3, 4))
        assert (bn(vals, banks) == Shuffle(4)(vals, banks)).all()
