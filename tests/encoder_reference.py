"""The Python writer of the NeaTS payload layout: the reference for the C
writer ``neats_encode`` of ``repro.core.neats.c``.

``payload(ys, shift, pieces)`` lays out ⟨S, B, O, C, K, P, D⟩ section by
section with numpy, as the encoder did before the C writer; ``EliasFano``
is its writer of ``S`` and ``O``, whose bytes ``succinct_reference``'s
``EliasFanoReader`` parses back.
"""
from __future__ import annotations

import struct

import numpy as np

from repro.core import native
from repro.core.bitstream import bits_for, pack_bits, signed_width
from repro.core.models import FAMILIES
from repro.core.partition import frag_rows

__all__ = ["EliasFano", "payload"]


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


def _packed(values) -> bytes:
    """A fixed-width array in cells of the largest value's width."""
    width = bits_for(int(np.max(values, initial=0)))
    words = pack_bits(values, np.full(len(values), width))
    return struct.pack("<iiq", len(values), width, len(words)) + words.tobytes()


def payload(ys: np.ndarray, shift: int, pieces) -> bytes:
    """The bytes of ``NeaTS(ys, shift=shift, pieces=pieces).to_bytes()``."""
    n, m = len(ys), len(pieces)
    frags = frag_rows(pieces, n)
    kinds = frags["kind"][:m]
    cs = ys - native.evaluate(frags, floor=True)
    starts = frags["start"][:m]
    lengths = np.diff(frags["start"])
    widths = [signed_width(ends) for ends in
              zip(np.minimum.reduceat(cs, starts).tolist(), np.maximum.reduceat(cs, starts).tolist())]
    point_widths = np.repeat(widths, lengths)
    half = np.where(point_widths > 0, np.left_shift(1, np.maximum(point_widths - 1, 0)), 0)
    offsets = [0, *np.cumsum(np.asarray(widths) * lengths).tolist()]
    parts = [
        struct.pack("<4sqqib", b"NTS2", n, shift, m, 0),
        _packed(widths),
        _packed(frags["delta"][:m]),
        EliasFano(starts.tolist()).serialize(),
        EliasFano(offsets).serialize(),
        _packed(kinds),
        struct.pack("<q", offsets[-1]),
        pack_bits(cs + half, point_widths).tobytes(),
    ]
    for kind_id in np.unique(kinds).tolist():
        params = frags["p"][:m][kinds == kind_id, :FAMILIES[kind_id].n_params]
        parts.append(struct.pack("<ii", kind_id, len(params)))
        parts.append(params.tobytes())
    parts.append(struct.pack("<i", -1))
    return b"".join(parts)
