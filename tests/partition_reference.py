"""Partitioners in Python: the references for the C kernel (``alg1.c``).

``optimal_partition_reference`` is the same sweep as
``repro.core.partition.optimal_partition``, over ``FragmentFitter``
(Theorem 1 via ``SegmentStabber``), with the same edge weights, the same
pair order and strict ``<`` relaxations, so it returns the same partition
bit for bit.  ``piecewise_partition`` is Corollary 1, the greedy
longest-fragment partition of one ``(family, eps)`` pair (O'Rourke's
optimal PLA for Linear), which PLA's kernel partition must equal.  Used
only in tests.
"""
from __future__ import annotations

import numpy as np

from repro.core.bitstream import bits_for_signed
from repro.core.models import Family, FragmentFitter
from repro.core.partition import FRAGMENT_OVERHEAD_BITS, Piece

__all__ = ["optimal_partition_reference", "piecewise_partition"]

_INF = float("inf")


class _PairState:
    """Per-(family, eps) bookkeeping: the maximal fragment overlapping the sweep."""

    __slots__ = ("family", "eps", "start", "end", "params", "corr_bits", "kappa", "valid")

    def __init__(self, family: Family, eps: int):
        self.family = family
        self.eps = int(eps)
        self.start = -1
        self.end = -1
        self.params: tuple = ()
        self.corr_bits = bits_for_signed(self.eps) if self.eps > 0 else 0
        self.kappa = family.param_bits + FRAGMENT_OVERHEAD_BITS
        self.valid = False

    def refresh(self, ys: np.ndarray, k: int) -> None:
        """MakeApproximation(T, k, f, eps): greedy maximal fragment from k."""
        fitter = FragmentFitter(self.family, self.eps)
        n = len(ys)
        j = k
        while j < n:
            try:
                ok = fitter.try_extend(int(ys[j]))
            except ValueError:
                ok = False
            if not ok:
                break
            j += 1
        self.start = k
        if j == k:  # family undefined at this point (e.g. positivity)
            self.end = k + 1
            self.valid = False
            return
        self.end = j
        self.params = fitter.params()
        self.valid = True


def optimal_partition_reference(
    ys: np.ndarray, families: list[Family], epsilons: list[int], *, lossy: bool = False,
) -> list[Piece]:
    """Algorithm 1; raises AssertionError where some node is unreachable."""
    n = len(ys)
    pairs = [_PairState(f, e) for f in families for e in epsilons]

    distance = [_INF] * (n + 1)
    distance[0] = 0.0
    # previous[j] = (i, pair, fit_start, params) for the best edge (i, j) so far
    previous: list[tuple[int, _PairState, int, tuple] | None] = [None] * (n + 1)

    def weight(p: _PairState, i: int, j: int) -> float:
        if lossy:
            return p.kappa
        return (j - i) * p.corr_bits + p.kappa

    for k in range(n):
        for p in pairs:
            if p.end <= k:
                p.refresh(ys, k)
            if not p.valid:
                continue
            # relax prefix edge (start, k)
            i = p.start
            if i < k and distance[i] + weight(p, i, k) < distance[k]:
                distance[k] = distance[i] + weight(p, i, k)
                previous[k] = (i, p, p.start, p.params)
        dk = distance[k]
        if dk == _INF:
            raise AssertionError(f"node {k} unreachable — partition invariant broken")
        for p in pairs:
            if not p.valid:
                continue
            # relax suffix edge (k, end)
            j = p.end
            if distance[k] + weight(p, k, j) < distance[j]:
                distance[j] = dk + weight(p, k, j)
                previous[j] = (k, p, p.start, p.params)

    # read the shortest path backwards
    pieces: list[Piece] = []
    k = n
    while k != 0:
        prev = previous[k]
        if prev is None:
            raise AssertionError(f"node {k} has no predecessor")
        i, p, fit_start, params = prev
        pieces.append(Piece(i, k, p.family.kind, p.eps, params, delta=i - fit_start))
        k = i
    pieces.reverse()
    return pieces


def piecewise_partition(ys: np.ndarray, family: Family, eps: int) -> list[Piece]:
    """Greedy minimum-piece partition of ``ys`` for one (family, eps) pair:
    repeatedly applying Theorem 1 from left to right (Corollary 1)."""
    n = len(ys)
    pieces: list[Piece] = []
    i = 0
    while i < n:
        f = FragmentFitter(family, eps)
        j = i
        while j < n:
            try:
                ok = f.try_extend(int(ys[j]))
            except ValueError:
                ok = False
            if not ok:
                break
            j += 1
        if j == i:
            raise ValueError(
                f"{family.kind} cannot approximate the single value {ys[i]} "
                f"with eps={eps}; shift the series to satisfy positivity first"
            )
        pieces.append(Piece(i, j, family.kind, eps, f.params()))
        i = j
    return pieces
