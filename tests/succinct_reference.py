"""Python readers of succinct structures, used only by the tests.

``EliasFanoReader`` parses the bytes of ``EliasFano.serialize``, as the C
view in ``neats.c`` does, and is the reference for that reader.
``RankBitvector`` (a plain bitvector with a one-level rank directory, the
layout whose size DAC counts for its continuation bits) addresses the
levels of ``tests/wavelet_reference.py``.
"""
from __future__ import annotations

import struct

import numpy as np

from repro.core.bitstream import BitReader

__all__ = ["EliasFanoReader", "RankBitvector"]

_BLOCK = 512  # bits per superblock in the rank directory


class EliasFanoReader:
    """The sequence serialised at ``blob[off:]`` by ``EliasFano.serialize``;
    ``end`` is the offset just past it."""

    def __init__(self, blob: bytes, off: int = 0) -> None:
        n, _universe, l, n_low, n_up = struct.unpack_from("<qqiqq", blob, off)
        off += 36
        low = np.frombuffer(blob, dtype=np.uint64, count=n_low, offset=off)
        off += 8 * n_low
        up = np.frombuffer(blob, dtype=np.uint64, count=n_up, offset=off)
        self.end = off + 8 * n_up
        # value i is ((position of the i-th set upper bit) - i) << l | low field i
        bits = np.unpackbits(up.view(np.uint8), bitorder="little")
        highs = np.flatnonzero(bits)[:n] - np.arange(n)
        reader = BitReader(low, n * l)
        lows = [reader.read(i * l, l) for i in range(n)]
        self._values = (highs << l) | np.asarray(lows, dtype=np.int64)

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < len(self._values):
            raise IndexError(i)
        return int(self._values[i])

    def to_list(self) -> list[int]:
        return self._values.tolist()

    def rank(self, v: int) -> int:
        """Number of elements <= v (the paper's S.rank operation)."""
        return int(np.searchsorted(self._values, v, side="right"))

    def predecessor_index(self, v: int) -> int:
        """Index of the rightmost element <= v; -1 if none."""
        return self.rank(v) - 1


class RankBitvector:
    def __init__(self, positions, length: int) -> None:
        """Bitvector of ``length`` bits with ones at ``positions``."""
        self._len = int(length)
        words = np.zeros((self._len + 63) // 64 + 1, dtype=np.uint64)
        pos = np.asarray(sorted(positions), dtype=np.int64)
        if len(pos) and (pos[0] < 0 or pos[-1] >= length):
            raise ValueError("position out of range")
        np.bitwise_or.at(words, pos >> 6, np.left_shift(np.uint64(1), (pos & 63).astype(np.uint64)))
        self._words = words
        # superblock ranks: number of ones before each block of _BLOCK bits
        per_block = np.add.reduceat(np.unpackbits(words.view(np.uint8)).reshape(len(words), 64).sum(axis=1),
                                    np.arange(0, len(words), _BLOCK // 64))
        self._dir = np.cumsum(per_block, dtype=np.int64) - per_block

    def __len__(self) -> int:
        return self._len

    @property
    def size_bits(self) -> int:
        return self._len + len(self._dir) * 64

    def get(self, i: int) -> bool:
        if not 0 <= i < self._len:
            raise IndexError(i)
        return bool((int(self._words[i >> 6]) >> (i & 63)) & 1)

    def rank1(self, i: int) -> int:
        """Number of ones in positions [0, i): one directory entry plus the
        words of one block."""
        if not 0 <= i <= self._len:
            raise IndexError(i)
        blk = i // _BLOCK
        r = int(self._dir[blk])
        for w in range(blk * (_BLOCK // 64), i >> 6):
            r += int(self._words[w]).bit_count()
        if i & 63:
            r += (int(self._words[i >> 6]) & ((1 << (i & 63)) - 1)).bit_count()
        return r

    def predecessor_one(self, i: int) -> int:
        """Largest position p <= i with a one bit; -1 if none (scan back)."""
        w = i >> 6
        cur = int(self._words[w]) & ((1 << ((i & 63) + 1)) - 1)
        while True:
            if cur:
                return (w << 6) + cur.bit_length() - 1
            w -= 1
            if w < 0:
                return -1
            cur = int(self._words[w])
