"""Plain bitvector with a rank directory (Jacobson-style, one level).

DAC stores its continuation bits in this layout and counts its size
(``size_bits``).  The queries over it (``get``, ``rank1``) live in
``tests/succinct_reference.py``, where the wavelet-tree reference uses them.
"""
from __future__ import annotations

import numpy as np

__all__ = ["RankBitvector"]

_BLOCK = 512  # bits per superblock in the rank directory


class RankBitvector:
    def __init__(self, positions, length: int) -> None:
        """Bitvector of ``length`` bits with ones at ``positions``."""
        self._len = int(length)
        words = np.zeros((self._len + 63) // 64 + 1, dtype=np.uint64)
        pos = np.asarray(sorted(positions), dtype=np.int64)
        if len(pos) and (pos[0] < 0 or pos[-1] >= length):
            raise ValueError("position out of range")
        for p in pos:
            words[p >> 6] |= np.uint64(1) << np.uint64(p & 63)
        self._words = words
        # superblock ranks: number of ones before each block of _BLOCK bits
        counts = []
        acc = 0
        per_word = _popcount64(words)
        wpb = _BLOCK // 64
        for blk in range(0, len(words), wpb):
            counts.append(acc)
            acc += int(per_word[blk:blk + wpb].sum())
        self._dir = np.asarray(counts, dtype=np.int64)

    def __len__(self) -> int:
        return self._len

    @property
    def size_bits(self) -> int:
        return self._len + len(self._dir) * 64


def _popcount64(words: np.ndarray) -> np.ndarray:
    """Vectorised popcount per uint64 word."""
    v = words.copy()
    m1 = np.uint64(0x5555555555555555)
    m2 = np.uint64(0x3333333333333333)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    h = np.uint64(0x0101010101010101)
    v = v - ((v >> np.uint64(1)) & m1)
    v = (v & m2) + ((v >> np.uint64(2)) & m2)
    v = (v + (v >> np.uint64(4))) & m4
    return ((v * h) >> np.uint64(56)).astype(np.int64)
