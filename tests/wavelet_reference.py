"""Wavelet matrix over a small alphabet (functionally a wavelet tree).

The paper stores the function-kind string ``K`` in a wavelet tree so that
``K.rank_f(i)`` — the number of fragments of kind ``f`` among the first
``i`` — runs in O(log |F|) time (Section III-C), and Algorithm 3 reads
fragment i's parameters at ``P_f[K.rank_f(i + 1) - 1]``.  The payload
stores ``K`` as a packed array and the C view computes every fragment's
``rank_f`` in one pass, so this structure serves the tests as the
reference for that addressing.  It is the wavelet *matrix* layout (SPIRE
2012): each level stably partitions the whole sequence by the current bit,
and navigation only needs the global zero count per level.
"""
from __future__ import annotations

import math

import numpy as np

from tests.succinct_reference import RankBitvector

__all__ = ["WaveletTree"]


class WaveletTree:
    def __init__(self, symbols, alphabet_size: int) -> None:
        """``symbols``: ints in [0, alphabet_size)."""
        syms = np.asarray(list(symbols), dtype=np.int64)
        self._n = len(syms)
        self._sigma = int(alphabet_size)
        self._levels = max(1, math.ceil(math.log2(max(2, self._sigma))))
        if len(syms) and (syms.min() < 0 or syms.max() >= alphabet_size):
            raise ValueError("symbol out of alphabet")
        self._bvs: list[RankBitvector] = []
        self._zeros: list[int] = []
        cur = syms
        for lvl in range(self._levels):
            bit = (cur >> (self._levels - 1 - lvl)) & 1
            self._bvs.append(RankBitvector(np.nonzero(bit)[0], len(cur)))
            self._zeros.append(int((bit == 0).sum()))
            cur = np.concatenate([cur[bit == 0], cur[bit == 1]])
        self._symbols = syms  # only for cheap to_list in tests

    def __len__(self) -> int:
        return self._n

    @property
    def size_bits(self) -> int:
        return sum(b.size_bits for b in self._bvs)

    def access(self, i: int) -> int:
        if not 0 <= i < self._n:
            raise IndexError(i)
        sym, p = 0, i
        for lvl, bv in enumerate(self._bvs):
            if bv.get(p):
                sym = (sym << 1) | 1
                p = self._zeros[lvl] + bv.rank1(p)
            else:
                sym <<= 1
                p = p - bv.rank1(p)
        return sym

    def rank(self, symbol: int, i: int) -> int:
        """Occurrences of ``symbol`` in the prefix [0, i)."""
        if not 0 <= i <= self._n:
            raise IndexError(i)
        if not 0 <= symbol < self._sigma:
            raise ValueError(symbol)
        lo, hi = 0, i
        for lvl, bv in enumerate(self._bvs):
            if (symbol >> (self._levels - 1 - lvl)) & 1:
                lo = self._zeros[lvl] + bv.rank1(lo)
                hi = self._zeros[lvl] + bv.rank1(hi)
            else:
                lo = lo - bv.rank1(lo)
                hi = hi - bv.rank1(hi)
        return hi - lo

    def to_list(self) -> list[int]:
        return [int(s) for s in self._symbols]
