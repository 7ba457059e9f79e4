"""Shuffle networks: the reordering crossbars of paper Fig. 3.

MAX-PolyMem contains three shuffles — the Address Shuffle, the Write Data
Shuffle and the Read Data Shuffle.  Given a *reordering signal* (the
per-lane bank assignment produced by ``M``), the regular :class:`Shuffle`
moves lane-ordered values into bank order, while the :class:`InverseShuffle`
with the same signal restores lane order.  The paper implements the Write
Data Shuffle as an inverse shuffle and the Read Data Shuffle as a regular
shuffle.

Two hardware realizations are modeled, for the crossbar-area ablation bench:

* :class:`FullCrossbar` — the paper's implementation; O(n^2) multiplexer
  area, single stage.
* :class:`BenesNetwork` — a rearrangeable non-blocking permutation network;
  O(n log n) 2x2 switches across ``2*log2(n) - 1`` stages, routed with the
  classic looping algorithm.

Both realizations are functionally exact permutations; they differ only in
the resource/latency estimates consumed by :mod:`repro.hw`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import PatternError, SimulationError

__all__ = [
    "Shuffle",
    "InverseShuffle",
    "FullCrossbar",
    "BenesNetwork",
    "permutation_from_banks",
]


def permutation_from_banks(banks: np.ndarray) -> np.ndarray:
    """Build the lane->bank permutation from a bank-assignment vector.

    *banks[k]* is the flat bank id accessed by lane ``k``.  For a
    conflict-free access this is a permutation of ``0..n-1``; otherwise a
    :class:`SimulationError` is raised (hardware would corrupt data here —
    the model refuses instead).
    """
    banks = np.asarray(banks)
    n = banks.size
    if banks.ndim != 1:
        raise PatternError("bank assignment must be 1-D")
    seen = np.zeros(n, dtype=bool)
    if banks.min(initial=0) < 0 or banks.max(initial=-1) >= n:
        raise SimulationError(f"bank ids out of range for {n} banks")
    seen[banks] = True
    if not seen.all():
        raise SimulationError(
            "bank assignment is not a permutation (conflicting access)"
        )
    return banks


class Shuffle:
    """Regular shuffle: ``out[banks[k]] = in[k]`` (lane order -> bank order)."""

    def __init__(self, lanes: int):
        if lanes < 1:
            raise PatternError(f"lanes must be positive, got {lanes}")
        self.lanes = lanes

    def __call__(self, values: np.ndarray, banks: np.ndarray) -> np.ndarray:
        """Reorder *values* so position ``banks[k]`` holds lane ``k``'s value.

        *values* may be 1-D (one access) or 2-D ``(B, lanes)`` (a batch
        sharing one reordering signal per row when *banks* is 2-D).
        """
        values = np.asarray(values)
        banks = np.asarray(banks)
        if values.ndim == 1:
            perm = permutation_from_banks(banks)
            out = np.empty_like(values)
            out[perm] = values
            return out
        if values.ndim == 2 and banks.ndim == 2:
            if values.shape != banks.shape:
                raise PatternError("batched values/banks shape mismatch")
            out = np.empty_like(values)
            rows = np.arange(values.shape[0])[:, None]
            out[rows, banks] = values
            return out
        raise PatternError("values must be 1-D, or 2-D with 2-D banks")


class InverseShuffle(Shuffle):
    """Inverse shuffle: ``out[k] = in[banks[k]]`` (bank order -> lane order).

    With the same reordering signal, ``InverseShuffle(Shuffle(x)) == x``.
    """

    def __call__(self, values: np.ndarray, banks: np.ndarray) -> np.ndarray:
        values = np.asarray(values)
        banks = np.asarray(banks)
        if values.ndim == 1:
            permutation_from_banks(banks)
            return values[banks]
        if values.ndim == 2 and banks.ndim == 2:
            if values.shape != banks.shape:
                raise PatternError("batched values/banks shape mismatch")
            rows = np.arange(values.shape[0])[:, None]
            return values[rows, banks]
        raise PatternError("values must be 1-D, or 2-D with 2-D banks")


@dataclass(frozen=True)
class CrossbarCost:
    """Hardware cost estimate of a shuffle realization."""

    muxes: int
    """Equivalent n:1 multiplexer count (full crossbar) or 2x2 switches."""
    stages: int
    """Pipeline depth in switching stages."""
    lut_estimate: int
    """Rough LUT count (6-input LUTs, 64-bit datapath)."""


class FullCrossbar(Shuffle):
    """Single-stage n x n crossbar: the realization used by MAX-PolyMem.

    Area grows quadratically with the lane count, which the paper identifies
    as the cause of the supra-linear logic increase from 8 to 16 lanes.
    """

    #: LUTs per 2:1 mux bit (one LUT6 implements two 2:1 muxes -> 0.5)
    LUTS_PER_MUX_BIT = 0.5

    def __init__(self, lanes: int, width_bits: int = 64):
        super().__init__(lanes)
        self.width_bits = width_bits

    def cost(self) -> CrossbarCost:
        """O(n^2) mux cost: each of n outputs needs an n:1 mux, which is
        built from (n - 1) 2:1 muxes, replicated across the datapath."""
        n = self.lanes
        mux2 = n * (n - 1) * self.width_bits
        return CrossbarCost(
            muxes=n,
            stages=1,
            lut_estimate=int(mux2 * self.LUTS_PER_MUX_BIT),
        )


class BenesNetwork(Shuffle):
    """Benes rearrangeable permutation network over ``n = 2^k`` lanes.

    Functionally identical to a full crossbar for permutation traffic, with
    O(n log n) area — the ablation bench quantifies the trade against the
    paper's full-crossbar choice.  Routing uses the classical looping
    algorithm, recursively splitting the permutation across the outer
    switch stages into two half-size sub-networks.
    """

    LUTS_PER_MUX_BIT = 0.5

    def __init__(self, lanes: int, width_bits: int = 64):
        super().__init__(lanes)
        if lanes & (lanes - 1):
            raise PatternError(f"Benes network requires power-of-two lanes, got {lanes}")
        self.width_bits = width_bits

    # -- routing ---------------------------------------------------------
    def route(self, perm: np.ndarray) -> list[np.ndarray]:
        """Compute per-stage switch settings realizing *perm*.

        Returns one boolean array per stage; entry ``s`` of a stage array
        tells whether 2x2 switch ``s`` of that stage crosses its inputs.
        The result has ``2*log2(n) - 1`` stages (a single 1-switch stage
        when n == 2).  Routing uses the looping algorithm expressed as a
        2-coloring of the input/output switch constraint graph.
        """
        perm = permutation_from_banks(np.asarray(perm))
        return self._route_two_coloring(perm.tolist())

    def _route_two_coloring(self, perm: list[int]) -> list[np.ndarray]:
        """Route by 2-coloring the constraint graph between input and output
        switches: legs sharing an input switch must use different subnets,
        and legs sharing an output switch must use different subnets.  The
        constraint graph is a union of even cycles, hence always
        2-colorable (Benes rearrangeability)."""
        n = len(perm)
        if n == 2:
            return [np.array([perm[0] == 1])]
        half = n // 2
        inv = [0] * n
        for leg, dst in enumerate(perm):
            inv[dst] = leg
        color = [-1] * n  # subnet (0/1) carrying each input leg
        for start in range(n):
            if color[start] != -1:
                continue
            color[start] = 0
            stack = [start]
            while stack:
                leg = stack.pop()
                c = color[leg]
                # input-switch constraint: partner leg uses other subnet
                partner_in = leg ^ 1
                if color[partner_in] == -1:
                    color[partner_in] = 1 - c
                    stack.append(partner_in)
                elif color[partner_in] == c:
                    raise SimulationError("Benes routing coloring conflict")
                # output-switch constraint: the leg delivering the partner
                # output must use the other subnet
                partner_leg = inv[perm[leg] ^ 1]
                if color[partner_leg] == -1:
                    color[partner_leg] = 1 - c
                    stack.append(partner_leg)
                elif color[partner_leg] == c:
                    raise SimulationError("Benes routing coloring conflict")
        in_sw = np.array([color[2 * s] == 1 for s in range(half)])
        out_sw = np.zeros(half, dtype=bool)
        sub = [[-1] * half, [-1] * half]
        for leg in range(n):
            net = color[leg]
            dst = perm[leg]
            sub[net][leg // 2] = dst // 2
            out_sw[dst // 2] = (dst % 2) != net
        upper = self._route_two_coloring(sub[0])
        lower = self._route_two_coloring(sub[1])
        mid = [np.concatenate([u, l]) for u, l in zip(upper, lower)]
        return [in_sw, *mid, out_sw]

    def apply_route(self, values: np.ndarray, stages: list[np.ndarray]) -> np.ndarray:
        """Push *values* through the switch settings (for verification)."""
        return self._apply_rec(np.asarray(values), stages)

    def _apply_rec(self, values: np.ndarray, stages: list[np.ndarray]) -> np.ndarray:
        n = values.size
        if n == 2:
            return values[::-1].copy() if stages[0][0] else values.copy()
        half = n // 2
        in_sw, mid, out_sw = stages[0], stages[1:-1], stages[-1]
        upper_in = np.empty(half, dtype=values.dtype)
        lower_in = np.empty(half, dtype=values.dtype)
        for s in range(half):
            a, b = values[2 * s], values[2 * s + 1]
            if in_sw[s]:
                a, b = b, a
            upper_in[s], lower_in[s] = a, b
        # each sub-network has `half` lanes, hence half//2 switches per stage
        up_stages = [m[: half // 2] for m in mid]
        lo_stages = [m[half // 2 :] for m in mid]
        upper_out = self._apply_rec(upper_in, up_stages)
        lower_out = self._apply_rec(lower_in, lo_stages)
        out = np.empty(n, dtype=values.dtype)
        for s in range(half):
            a, b = upper_out[s], lower_out[s]
            if out_sw[s]:
                a, b = b, a
            out[2 * s], out[2 * s + 1] = a, b
        return out

    def __call__(self, values: np.ndarray, banks: np.ndarray) -> np.ndarray:
        """Permute via routed switch stages (slow path, proves equivalence).

        The result equals ``Shuffle.__call__`` — tested property.
        """
        values = np.asarray(values)
        if values.ndim != 1:
            # fall back to direct permutation semantics for batches
            return Shuffle.__call__(self, values, banks)
        perm = permutation_from_banks(np.asarray(banks))
        stages = self.route(perm)
        return self.apply_route(values, stages)

    @property
    def num_stages(self) -> int:
        """Stage count: ``2*log2(n) - 1``."""
        return 2 * int(math.log2(self.lanes)) - 1

    def cost(self) -> CrossbarCost:
        """O(n log n) switches, ``2 log2 n - 1`` stages."""
        n = self.lanes
        switches = (n // 2) * self.num_stages
        # one 2x2 switch = 2 two-input muxes per bit
        mux2 = switches * 2 * self.width_bits
        return CrossbarCost(
            muxes=switches,
            stages=self.num_stages,
            lut_estimate=int(mux2 * self.LUTS_PER_MUX_BIT),
        )
