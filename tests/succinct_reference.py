"""Python readers of the succinct structures that ``repro.core`` writes.

The program only builds these structures: NeaTS payloads are read by the C
view, and DAC keeps its own rank arrays.  The tests read them here, as the
reference for that C reader (``EliasFanoReader`` parses the bytes of
``EliasFano.serialize``, as ``neats.c`` does) and for the wavelet-tree
addressing of ``tests/wavelet_reference.py`` (``RankBitvector``).
"""
from __future__ import annotations

import struct

import numpy as np

from repro.core import bitvector
from repro.core.bitstream import BitReader

__all__ = ["EliasFanoReader", "RankBitvector"]


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


class RankBitvector(bitvector.RankBitvector):
    """``repro.core.bitvector.RankBitvector`` with its queries."""

    def get(self, i: int) -> bool:
        if not 0 <= i < self._len:
            raise IndexError(i)
        return bool((int(self._words[i >> 6]) >> (i & 63)) & 1)

    def rank1(self, i: int) -> int:
        """Number of ones in positions [0, i): one directory entry plus the
        words of one block."""
        if not 0 <= i <= self._len:
            raise IndexError(i)
        blk = i // bitvector._BLOCK
        r = int(self._dir[blk])
        for w in range(blk * (bitvector._BLOCK // 64), i >> 6):
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
