"""Block-wise random-access wrapper (Section IV-A2).

"We apply compressors that do not natively support random access to blocks
of 1000 consecutive values [and] maintain an array that maps each block
index to a pointer referencing the starting byte of the block" — this
module is exactly that wrapper, generic over any stream codec with
``compress(values) -> payload`` / ``decompress(payload, n_values) ->
values``: the general-purpose codecs and the XOR codecs over 1000-value
blocks, and ALP over its 1024-value vectors.
"""
from __future__ import annotations

import numpy as np

__all__ = ["BlockStore", "BLOCK"]

BLOCK = 1000


class BlockStore:
    def __init__(self, codec, values: np.ndarray, *, block: int = BLOCK):
        self.codec = codec
        self.block = block
        self.n = len(values)
        self.dtype = values.dtype
        self.payloads = [codec.compress(values[i:i + block]) for i in range(0, self.n, block)]

    @property
    def size_bytes(self) -> int:
        # payloads + one 8-byte pointer per block + header
        return sum(len(p) for p in self.payloads) + 8 * len(self.payloads) + 16

    def _decode_block(self, b: int) -> np.ndarray:
        return self.codec.decompress(self.payloads[b], min(self.block, self.n - b * self.block))

    def decompress(self) -> np.ndarray:
        return self.scan(0, self.n)

    def access(self, k: int):
        """Random access: decompress the containing block."""
        if not 0 <= k < self.n:
            raise IndexError(k)
        return self._decode_block(k // self.block)[k % self.block]

    def scan(self, lo: int, hi: int) -> np.ndarray:
        """Range query [lo, hi): decode the touched blocks, slice."""
        if not 0 <= lo <= hi <= self.n:
            raise IndexError((lo, hi))
        if lo == hi:
            return np.empty(0, dtype=self.dtype)
        b0, b1 = lo // self.block, (hi - 1) // self.block
        parts = [self._decode_block(b) for b in range(b0, b1 + 1)]
        full = np.concatenate(parts)
        off = lo - b0 * self.block
        return full[off:off + (hi - lo)]
