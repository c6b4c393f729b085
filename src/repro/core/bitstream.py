"""Bit-level substrate: one vectorised packer and reader of bit fields,
and a scalar reader for variable-width streams.

``pack_bits`` writes any sequence of fields of widths 0..64 in one pass;
``read_packed`` reads fixed-width fields back at any indexes.  The
fixed-width baselines (DAC levels, LeCo residuals, ALP digits) use only
these two.  The XOR streams (Gorilla, Chimp, Chimp128) are written by
``pack_bits`` too and read by ``BitReader``, because the width of each
field depends on the values already decoded.  NeaTS packs its payload in
C (``neats_encode`` and the decoder in ``neats.c``) and takes only
``bits_for_signed`` from here, for Algorithm 1's correction widths.
Words are stored little-endian-in-bits inside a ``numpy`` ``uint64``
buffer: bit ``i`` of the stream is bit ``i % 64`` of word ``i // 64``.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "BitRangeError", "BitReader", "bits_for", "bits_for_signed",
    "read_packed", "signed_width", "pad_words", "pack_bits",
]


def bits_for(max_value: int) -> int:
    """Bits needed to store unsigned values in ``[0, max_value]`` (min 1)."""
    if max_value < 0:
        raise ValueError("max_value must be non-negative")
    return max(1, int(max_value).bit_length())


def bits_for_signed(max_abs: int) -> int:
    """Bits needed for the correction alphabet ``[-max_abs, +max_abs]``.

    The paper stores corrections in ``ceil(log2(2*eps + 1))`` bits; this is
    exactly that with ``max_abs = eps`` (min 1 bit so a fragment always has a
    well-defined correction width of at least zero-cost semantics).
    """
    if max_abs < 0:
        raise ValueError("max_abs must be non-negative")
    return max(1, int(2 * max_abs).bit_length())


def signed_width(values) -> int:
    """Smallest w such that every value fits two's-complement in w bits.

    Returns 0 when all values are zero (the paper's eps=0 case stores no
    correction bits at all).
    """
    vals = np.asarray(values)
    if vals.size == 0:
        return 0
    # the width needed grows with |c| on either side of zero, so the
    # extremes decide it
    lo, hi = int(vals.min()), int(vals.max())
    return max(hi.bit_length() + 1 if hi > 0 else 0,
               (-lo - 1).bit_length() + 1 if lo < 0 else 0)


def pack_bits(values: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """The words of the stream that writes each ``values[i]``
    (non-negative, below ``2**widths[i]``) in ``widths[i]`` bits (0..64),
    one after another, LSB first."""
    vals = np.asarray(values).astype(np.uint64)
    widths = np.asarray(widths, dtype=np.int64)
    if widths.size and not 0 <= widths.min() <= widths.max() <= 64:
        raise ValueError("pack_bits supports widths 0..64")
    pos = np.cumsum(widths) - widths
    nwords = max(1, (int(widths.sum()) + 63) // 64)
    # two spare words: a zero-width field at the end of a stream that fills
    # its last word indexes the word after it, and its spill the next one
    words = np.zeros(nwords + 2, dtype=np.uint64)
    idx = pos >> 6
    sh = (pos & 63).astype(np.uint64)
    np.bitwise_or.at(words, idx, vals << sh)
    # the high bits that cross into the next word; (v >> 1) >> (63 - sh)
    # is v >> (64 - sh), and 0 where sh == 0, as numpy's v >> 64 would not be
    np.bitwise_or.at(words, idx + 1, (vals >> np.uint64(1)) >> (np.uint64(63) - sh))
    return words[:nwords]


def pad_words(words: np.ndarray) -> np.ndarray:
    """One trailing zero word so cross-boundary reads never index OOB.

    :func:`read_packed` accepts pre-padded buffers via ``padded=True`` —
    padding per call would copy the whole bit buffer on every query."""
    return np.concatenate([words.astype(np.uint64), np.zeros(1, dtype=np.uint64)])


def read_packed(words: np.ndarray, width: int, idx, *, start_bit: int = 0,
                padded: bool = False) -> np.ndarray:
    """The fixed-``width`` fields at element indexes ``idx`` of the packed
    array that starts at ``start_bit``, as uint64: the one vectorised reader
    of fixed-width fields (a whole fragment or vector decodes with a few
    numpy ops instead of a per-value Python loop)."""
    if width == 0:
        return np.zeros(len(idx), dtype=np.uint64)
    if not 1 <= width <= 63:
        raise ValueError("read_packed supports widths 1..63")
    pos = start_bit + width * np.asarray(idx, dtype=np.int64)
    w = pos >> 6
    sh = (pos & 63).astype(np.uint64)
    pw = words if padded else pad_words(words)
    lo = pw[w] >> sh
    sh2 = (np.uint64(64) - sh) & np.uint64(63)  # 0 when sh == 0
    hi = np.where(sh == 0, np.uint64(0), pw[w + 1] << sh2)
    return (lo | hi) & np.uint64((1 << width) - 1)


class BitRangeError(IndexError, ValueError):
    """A read past the bits a :class:`BitReader` holds.  An ``IndexError``
    to the reader; a ``ValueError`` to a stream decoder, whose payload
    ended before the values its header counts."""


class BitReader:
    """Random-access reader over a ``uint64`` word array written by
    :func:`pack_bits`."""

    def __init__(self, words: np.ndarray, nbits: int) -> None:
        self._words = np.ascontiguousarray(words, dtype=np.uint64)
        self._nbits = int(nbits)
        if not 0 <= self._nbits <= 64 * len(self._words):
            raise BitRangeError(f"{self._nbits} bits in {len(self._words)} words")

    def __len__(self) -> int:
        return self._nbits

    def read(self, pos: int, nbits: int) -> int:
        """Read ``nbits`` bits starting at bit offset ``pos`` (LSB first)."""
        if nbits == 0:
            return 0
        if pos < 0 or pos + nbits > self._nbits:
            raise BitRangeError(f"bit range [{pos}, {pos + nbits}) out of [0, {self._nbits})")
        w, off = pos >> 6, pos & 63
        out = int(self._words[w]) >> off
        got = 64 - off
        while got < nbits:
            w += 1
            out |= int(self._words[w]) << got
            got += 64
        return out & ((1 << nbits) - 1)

    @property
    def words(self) -> np.ndarray:
        return self._words
