"""Conflict-freedom checking and empirical anchor-domain analysis.

A parallel access is *conflict-free* when its ``p * q`` elements map to
``p * q`` distinct banks, so every element can be served by a different
BRAM in the same cycle.  This module provides:

* :func:`is_conflict_free` — check one access under one scheme;
* :func:`conflict_banks` — identify the clashing banks (for diagnostics);
* :class:`ConflictAnalyzer` — derive, exhaustively over anchor residue
  classes, the *anchor domain* in which a pattern is conflict-free for a
  scheme.  This is how Table I of the paper is reproduced and validated
  (``benchmarks/bench_table1_schemes.py``).  The residue sets come from
  the ``ok`` tables of :func:`~repro.core.plan.compile_plan`;
  :func:`is_conflict_free` stays the per-access reference they are
  tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .patterns import AccessPattern, PatternKind, kinds_in_table_order
from .plan import compile_plan
from .schemes import Scheme, flat_module_assignment

__all__ = [
    "is_conflict_free",
    "conflict_banks",
    "serialization_factor",
    "AnchorDomain",
    "ConflictAnalyzer",
]


def access_banks(
    scheme: Scheme, kind: PatternKind, i: int, j: int, p: int, q: int,
    stride: int = 1,
) -> np.ndarray:
    """Flat bank ids (length ``p*q``) touched by the access, in lane order."""
    pat = AccessPattern(kind, p, q, stride)
    ii, jj = pat.coordinates(i, j)
    return flat_module_assignment(scheme, ii, jj, p, q)


def is_conflict_free(
    scheme: Scheme, kind: PatternKind, i: int, j: int, p: int, q: int,
    stride: int = 1,
) -> bool:
    """True when the access at anchor (i, j) touches p*q distinct banks."""
    banks = access_banks(scheme, kind, i, j, p, q, stride)
    return len(np.unique(banks)) == banks.size


def conflict_banks(
    scheme: Scheme, kind: PatternKind, i: int, j: int, p: int, q: int,
    stride: int = 1,
) -> list[int]:
    """Bank ids hit more than once by the access (empty = conflict-free)."""
    banks = access_banks(scheme, kind, i, j, p, q, stride)
    uniq, counts = np.unique(banks, return_counts=True)
    return uniq[counts > 1].tolist()


def serialization_factor(
    scheme: Scheme, kind: PatternKind, i: int, j: int, p: int, q: int,
    stride: int = 1,
) -> int:
    """Cycles hardware needs for this access: the worst per-bank load.

    A conflict-free access costs 1 cycle.  A conflicting one must be
    serialized by the bank arbiter: each bank serves one element per
    cycle, so the access takes ``max_k |{lanes mapped to bank k}|`` cycles
    — the quantity the scheme choice is minimizing.  (PolyMem itself
    refuses conflicting accesses; this function prices the alternative for
    analyses like the transpose example's ReO-vs-ReTr comparison.)
    """
    banks = access_banks(scheme, kind, i, j, p, q, stride)
    _, counts = np.unique(banks, return_counts=True)
    return int(counts.max())


@dataclass(frozen=True)
class AnchorDomain:
    """The set of anchors at which a (scheme, pattern) pair is conflict-free.

    ``label`` is one of:

    * ``"any"`` — every anchor;
    * ``"i_aligned"`` — anchors with ``i % p == 0``;
    * ``"j_aligned"`` — anchors with ``j % q == 0``;
    * ``"aligned"`` — anchors with both alignments;
    * ``"none"`` — no anchor (pattern unsupported).

    ``ok_residues`` is the exact set of working ``(i % P, j % P)`` residue
    classes over the MAF period ``P``, which the label summarizes.
    """

    label: str
    period_i: int
    period_j: int
    ok_residues: frozenset[tuple[int, int]]

    def contains(self, i: int, j: int) -> bool:
        """Whether anchor (i, j) lies in the conflict-free domain."""
        return (i % self.period_i, j % self.period_j) in self.ok_residues

    @property
    def fraction(self) -> float:
        """Fraction of all anchor residue classes that are conflict-free."""
        return len(self.ok_residues) / (self.period_i * self.period_j)


class ConflictAnalyzer:
    """Empirical anchor-domain analysis for a lane grid ``p x q``.

    The MAFs are periodic in ``i`` with period ``p * q`` (because of the
    ``i // p`` terms combined with ``mod p``/``mod q``) and in ``j`` with
    period ``p * q``; testing one full period of anchor residues is
    therefore exhaustive.
    """

    def __init__(self, p: int, q: int):
        self.p = p
        self.q = q
        #: anchor periodicity of every MAF on this lane grid
        self.period = p * q

    def domain(self, scheme: Scheme, kind: PatternKind) -> AnchorDomain:
        """Exhaustively derive the conflict-free anchor domain."""
        return self.stride_domain(scheme, kind, 1)

    def _label(self, ok: set[tuple[int, int]]) -> str:
        n = self.period
        full = {(a, b) for a in range(n) for b in range(n)}
        if ok == full:
            return "any"
        i_aligned = {(a, b) for a, b in full if a % self.p == 0}
        j_aligned = {(a, b) for a, b in full if b % self.q == 0}
        both = i_aligned & j_aligned
        if i_aligned <= ok:
            return "i_aligned"
        if j_aligned <= ok:
            return "j_aligned"
        if both <= ok:
            return "aligned"
        return "none" if not ok else "partial"

    def stride_domain(
        self, scheme: Scheme, kind: PatternKind, stride: int
    ) -> AnchorDomain:
        """Anchor domain of a strided (dilated) pattern.

        Strided patterns are the library's *sparse* accesses; the domain
        depends on arithmetic like gcd(stride, q), which this derives
        empirically (periodicity still holds: dilation preserves the MAF
        period).  The residues are read from the compiled plan's ``ok``
        table, which holds :func:`is_conflict_free` for every anchor
        residue class (the geometry only sizes the address tables)."""
        n = self.period
        plan = compile_plan(n, n, self.p, self.q, scheme, kind, stride)
        ok = set(map(tuple, np.argwhere(plan.ok).tolist()))
        return AnchorDomain(self._label(ok), n, n, frozenset(ok))

    def stride_table(
        self, scheme: Scheme, kind: PatternKind, strides=range(1, 9)
    ) -> dict[int, str]:
        """Which strides keep *kind* conflict-free under *scheme*
        (labels as in :class:`AnchorDomain`)."""
        return {
            s: self.stride_domain(scheme, kind, s).label for s in strides
        }

    def table(self, schemes=None, kinds=None) -> dict[Scheme, dict[PatternKind, AnchorDomain]]:
        """Full scheme x pattern domain table (the reproduction of Table I)."""
        from .schemes import all_schemes, validate_lane_grid
        from .exceptions import SchemeError

        schemes = list(schemes) if schemes is not None else list(all_schemes())
        kinds = list(kinds) if kinds is not None else list(kinds_in_table_order())
        out: dict[Scheme, dict[PatternKind, AnchorDomain]] = {}
        for s in schemes:
            try:
                validate_lane_grid(s, self.p, self.q)
            except SchemeError:
                continue
            out[s] = {k: self.domain(s, k) for k in kinds}
        return out

    def verify_spec(self, scheme: Scheme) -> list[str]:
        """Cross-check the static :class:`~repro.core.schemes.SchemeSpec`
        claims against the empirical domains.

        Returns a list of human-readable discrepancies (empty = the spec is
        sound *and* complete for this lane grid).
        """
        from .schemes import SCHEME_SPECS

        spec = SCHEME_SPECS[scheme]
        problems: list[str] = []
        constraint_to_label = {
            "any": {"any"},
            "i_aligned": {"any", "i_aligned"},
            "j_aligned": {"any", "j_aligned"},
        }
        for kind in kinds_in_table_order():
            dom = self.domain(scheme, kind)
            entry = spec.entry_for(kind)
            claimed = entry is not None and entry.condition_holds(self.p, self.q)
            if claimed:
                allowed = constraint_to_label[entry.anchor_constraint]
                if dom.label not in allowed:
                    problems.append(
                        f"{scheme}/{kind.value}: spec claims "
                        f"{entry.anchor_constraint}, empirically {dom.label}"
                    )
        return problems
