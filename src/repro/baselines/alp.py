"""ALP: Adaptive Lossless floating-Point compression (Afroozeh et al. 2023).

Per 1024-value vector: find the best pseudodecimal exponent/factor pair
``(e, f)`` such that ``d = round(x * 10^e) / 10^f`` is integral and decodes
exactly (``d * 10^f / 10^e == x``); values that fail are *exceptions*
stored verbatim with their positions.  The integral digits are
frame-of-reference bit-packed.  Decoding a vector is a multiply per value
— which is why ALP decompression is fast — and random access decodes just
the containing vector: the vectors are the blocks of a :class:`BlockStore`.
"""
from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from ..core.bitstream import bits_for, pack_bits, read_packed
from .blockstore import BlockStore

__all__ = ["ALP"]

_VECTOR = 1024
_MAX_E = 16
_POW10 = np.array([10.0 ** e for e in range(_MAX_E + 1)])


class _Vec:
    __slots__ = ("e", "f", "base", "width", "words", "nbits", "exc_pos", "exc_val")


def _encode_vector(x: np.ndarray) -> _Vec:
    n = len(x)
    best = None
    for e in range(_MAX_E + 1):
        d = np.round(x * _POW10[e])
        ok = np.isfinite(d) & (np.abs(d) < 2 ** 51)
        dec = d / _POW10[e]
        exact = ok & (dec == x)
        n_exc = int(n - exact.sum())
        if n_exc == n:
            continue
        dd = np.where(exact, d, np.nan)
        lo = np.nanmin(dd)
        hi = np.nanmax(dd)
        width = bits_for(int(hi - lo)) if hi > lo else 0
        size = n * width + n_exc * (64 + 16) + 32
        if best is None or size < best[0]:
            best = (size, e, exact, d)
    # an all-exception vector codes as e = 0 with no exact slot
    _, e, exact, d = best or (0, 0, np.zeros(n, dtype=bool), x)
    # factor f: strip common trailing decimal zeros of the digits
    dints = d[exact].astype(np.int64)
    f = 0
    while f < e and np.all(dints % 10 == 0):
        dints //= 10
        f += 1
    lo_i = int(dints.min()) if len(dints) else 0
    packed = dints - lo_i
    width = bits_for(int(packed.max())) if len(packed) and packed.max() > 0 else 0
    # non-exception slots hold their FOR value; exception slots hold 0
    slots = np.zeros(n, dtype=np.int64)
    slots[exact] = packed
    v = _Vec()
    v.e, v.f, v.base, v.width = e, f, lo_i, width
    v.words, v.nbits = pack_bits(slots, np.full(n, width)), n * width
    v.exc_pos = np.nonzero(~exact)[0].astype(np.int64)
    v.exc_val = x[~exact].copy()
    return v


def _decode_vector(v: _Vec, n: int) -> np.ndarray:
    if v.width:
        digits = read_packed(v.words, v.width, np.arange(n)).astype(np.int64) + v.base
    else:
        digits = np.full(n, v.base, dtype=np.int64)
    # digits * 10^f is an exact float (it equals the original d < 2^51),
    # so dividing by 10^e reproduces the encode-side exactness test bit-for-bit
    out = (digits.astype(np.float64) * _POW10[v.f]) / _POW10[v.e]
    if len(v.exc_pos):
        out[v.exc_pos] = v.exc_val
    return out


#: the vector coder, in the stream-codec shape that ``BlockStore`` calls
_VECTORS = SimpleNamespace(compress=_encode_vector, decompress=_decode_vector)


class ALP(BlockStore):
    """A :class:`BlockStore` whose blocks are the 1024-value vectors;
    random access decodes the containing vector, as the paper's
    random-access test exercises ALP."""

    def __init__(self, values: np.ndarray):
        super().__init__(_VECTORS, np.asarray(values, dtype=np.float64), block=_VECTOR)

    @property
    def size_bytes(self) -> int:
        bits = 0
        for v in self.payloads:
            bits += 64  # per-vector header: e, f, base, width
            bits += v.nbits
            bits += len(v.exc_pos) * (64 + 16)
        return (bits + 7) // 8 + 16
