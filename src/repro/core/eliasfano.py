"""Elias-Fano encoding of monotone integer sequences.

Used for ``S`` (fragment starts) and ``O`` (cumulative correction offsets)
in the NeaTS layout (Section III-C).  This is the encoder: the C view
(``neats.c``) reads the serialised bits back, and ``tests/`` hold a Python
reader as its reference.
"""
from __future__ import annotations

import struct

import numpy as np

from .bitstream import pack_bits

__all__ = ["EliasFano"]


class EliasFano:
    """Quasi-succinct representation of a non-decreasing sequence."""

    def __init__(self, values) -> None:
        vals = np.asarray(list(values), dtype=np.int64)
        if len(vals) and np.any(np.diff(vals) < 0):
            raise ValueError("sequence must be non-decreasing")
        if len(vals) and vals[0] < 0:
            raise ValueError("values must be non-negative")
        self._n = len(vals)
        self._universe = int(vals[-1]) + 1 if self._n else 1
        # classic parameter choice: l = max(0, floor(log2(u/n)))
        self._l = max(0, (self._universe // max(1, self._n)).bit_length() - 1)
        self._low_words = pack_bits(vals & ((1 << self._l) - 1), np.full(self._n, self._l))
        # upper bits in negated unary: element i sets bit (v >> l) + i
        highs = vals >> self._l
        nbits_up = int(highs[-1]) + self._n if self._n else 0
        pos = highs + np.arange(self._n)
        words = np.zeros((nbits_up + 64) // 64 + 1, dtype=np.uint64)
        np.bitwise_or.at(words, pos >> 6, np.left_shift(np.uint64(1), (pos & 63).astype(np.uint64)))
        self._up_words = words
        self._up_nbits = nbits_up

    def __len__(self) -> int:
        return self._n

    @property
    def size_bits(self) -> int:
        """Space of the quasi-succinct encoding (lower + upper bits)."""
        return self._n * self._l + self._up_nbits

    # -- serialisation: the quasi-succinct bits, not the raw integers --------
    def serialize(self) -> bytes:
        return (
            struct.pack(
                "<qqiqq", self._n, self._universe, self._l,
                len(self._low_words), len(self._up_words),
            )
            + np.ascontiguousarray(self._low_words).tobytes()
            + np.ascontiguousarray(self._up_words).tobytes()
        )
