"""Directly Addressable Codes (Brisaboa, Ladra, Navarro, IP&M 2013).

Splits each (zigzag-encoded) value into fixed-width chunks; level ``l``
stores the l-th chunk of every value that still has one, plus a bitvector
marking continuation.  Random access to value ``i`` walks the levels with
one rank per level — the fastest random access in the paper's Table III,
at a mediocre compression ratio, which is exactly the trade-off we
reproduce.

The chunk width is chosen per input among {2, 4, 8, 16} to minimise total
size (the original optimises level widths with DP; a global width search
captures the same knob).  The size of each width follows from the level
lengths, so only the chosen width is built.

Performance note: the stored structure is the packed chunk arrays and the
continuation bitvectors with their rank directories, one 64-bit count per
512 bits, which ``size_bits`` counts; only the chunk arrays are packed
(``pack_bits``).  The decode paths use a precomputed cumulative-rank
array per level — the numpy stand-in for the O(1) C rank that the
original relies on.
"""
from __future__ import annotations

import numpy as np

from ..core.bitstream import pack_bits, pad_words, read_packed

__all__ = ["DAC"]

#: the chunk widths that ``DAC.build`` tries
_WIDTHS = (2, 4, 8, 16)


def _level_bits(k: int, width: int) -> int:
    """Bits of one level of ``k`` chunks: the chunks, the continuation
    bitvector, and its rank directory (one 64-bit count per 512 bits of
    the bitvector's words plus a spare word)."""
    return k * width + k + 64 * (((k + 63) // 64 + 8) // 8)


def _zigzag(v: np.ndarray) -> np.ndarray:
    v = v.astype(np.int64)
    return ((v << 1) ^ (v >> 63)).astype(np.uint64)


def _unzigzag(u: np.ndarray) -> np.ndarray:
    u = u.astype(np.uint64)
    return ((u >> np.uint64(1)) ^ (~(u & np.uint64(1)) + np.uint64(1))).astype(np.int64)


class DAC:
    """The structure itself: levels of chunks + continuation bitvectors."""

    def __init__(self, values: np.ndarray, width: int):
        u = _zigzag(np.asarray(values, dtype=np.int64))
        self.n = len(u)
        self.width = width
        self.size_bits = 0
        self._level_words: list[np.ndarray] = []  # packed chunks, padded
        self._ranks: list[np.ndarray] = []  # exclusive rank1 per level position
        self._conts_bool: list[np.ndarray] = []  # continuation bits
        cur = u
        mask = np.uint64((1 << width) - 1)
        while len(cur):
            rest = cur >> np.uint64(width)
            has_more = rest != 0
            self._level_words.append(pad_words(pack_bits(cur & mask, np.full(len(cur), width))))
            self.size_bits += _level_bits(len(cur), width)
            self._ranks.append(np.cumsum(has_more) - has_more)  # exclusive
            self._conts_bool.append(has_more)
            cur = rest[has_more]
        # pure-Python mirrors for the scalar access hot path (numpy scalar
        # indexing costs ~100x a C rank; this is the decode-side cache)
        self._words_int = [[int(w) for w in lw] for lw in self._level_words]
        self._conts_list = [hb.tolist() for hb in self._conts_bool]
        self._ranks_list = [r.tolist() for r in self._ranks]

    @classmethod
    def build(cls, values: np.ndarray) -> "DAC":
        """The DAC of the smallest ``size_bits`` over ``_WIDTHS`` (the first
        on a tie), sized from the level lengths and built once."""
        ordered = np.sort(_zigzag(np.asarray(values, dtype=np.int64)))
        return cls(values, min(_WIDTHS, key=lambda w: _size_bits(ordered, w)))

    def access(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        v = 0
        shift = 0
        width = self.width
        mask = (1 << width) - 1
        for lvl in range(len(self._words_int)):
            pos = i * width
            w, sh = pos >> 6, pos & 63
            lw = self._words_int[lvl]
            chunk = lw[w] >> sh
            if sh and sh + width > 64:
                chunk |= lw[w + 1] << (64 - sh)
            v |= (chunk & mask) << shift
            if not self._conts_list[lvl][i]:
                break
            i = self._ranks_list[lvl][i]
            shift += width
        # inverse zigzag, scalar
        return (v >> 1) ^ -(v & 1)

    def scan(self, lo: int, hi: int) -> np.ndarray:
        """Range query [lo, hi): vectorised multi-level gather."""
        if not 0 <= lo <= hi <= self.n:
            raise IndexError((lo, hi))
        idx = np.arange(lo, hi, dtype=np.int64)
        out = np.zeros(len(idx), dtype=np.uint64)
        live = np.arange(len(idx), dtype=np.int64)
        shift = np.uint64(0)
        for lvl in range(len(self._level_words)):
            if not len(idx):
                break
            chunks = read_packed(self._level_words[lvl], self.width, idx, padded=True)
            out[live] |= chunks << shift
            cont = self._conts_bool[lvl][idx]
            idx = self._ranks[lvl][idx[cont]]
            live = live[cont]
            shift += np.uint64(self.width)
        return _unzigzag(out)

    def decompress(self) -> np.ndarray:
        return self.scan(0, self.n)

    @property
    def size_bytes(self) -> int:
        """Serialised size: the levels and continuation bitvectors plus a
        16-byte header."""
        return self.size_bits // 8 + 16


def _size_bits(ordered: np.ndarray, width: int) -> int:
    """``DAC(values, width).size_bits`` from the level lengths alone, with
    ``ordered`` the sorted zigzags of ``values``: level ``l`` holds one
    chunk of every value whose zigzag is >= 2^(width * l)."""
    bits, level, count = 0, 0, len(ordered)
    while count:
        bits += _level_bits(count, width)
        level += 1
        if width * level >= 64:
            break
        count = len(ordered) - int(np.searchsorted(ordered, np.uint64(1 << (width * level))))
    return bits

