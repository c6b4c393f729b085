"""Piecewise epsilon-approximations (Corollary 1).

Repeatedly applying Theorem 1 from left to right yields, in O(n) time, the
piecewise approximation with the *minimum number of pieces* for one
``(family, eps)`` pair — the greedy longest-fragment argument of the
classic PLA literature carries over unchanged.

:func:`frag_rows` turns any list of pieces (greedy or Algorithm 1's) into
the rows that the C evaluator reads.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import native
from .models import FAMILIES, Family, FragmentFitter

__all__ = ["Piece", "piecewise_partition", "frag_rows"]

_KIND_ID = {f.kind: i for i, f in enumerate(FAMILIES)}  # kind ids index FAMILIES


@dataclass(frozen=True)
class Piece:
    """A fragment [start, end) of the series with its fitted function.

    ``delta`` shifts the evaluation domain: the fragment's j-th value
    (j = 1..len) is approximated by the family's f at local x = j + delta.
    Greedy pieces always have ``delta == 0``; Algorithm 1's suffix edges
    reuse a function fitted at an earlier origin and set ``delta > 0``.
    """
    start: int
    end: int
    kind: str
    eps: int
    params: tuple
    delta: int = 0

    def __len__(self) -> int:
        return self.end - self.start


def piecewise_partition(ys: np.ndarray, family: Family, eps: int) -> list[Piece]:
    """Greedy minimum-piece partition of ``ys`` for one (family, eps) pair."""
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


def frag_rows(pieces: list[Piece], n: int) -> np.ndarray:
    """The ``native.FRAG`` rows of ``pieces``, which tile ``[0, n)`` in
    order, plus the sentinel row ``start = n``: the input of the C
    evaluator, ``native.evaluate``."""
    m = len(pieces)
    frags = np.zeros(m + 1, dtype=native.FRAG)
    frags["start"] = [p.start for p in pieces] + [n]
    frags["delta"][:m] = [p.delta for p in pieces]
    frags["kind"][:m] = [_KIND_ID[p.kind] for p in pieces]
    for row, p in zip(frags["p"], pieces):
        row[:len(p.params)] = p.params
    return frags
