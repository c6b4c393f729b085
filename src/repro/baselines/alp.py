"""ALP: Adaptive Lossless floating-Point compression (Afroozeh et al. 2023).

Per 1024-value vector: find the best pseudodecimal exponent/factor pair
``(e, f)`` such that ``d = round(x * 10^e) / 10^f`` is integral and decodes
exactly (``d * 10^f / 10^e == x``); values that fail are *exceptions*
stored verbatim with their positions.  The integral digits are
frame-of-reference bit-packed.  Decoding a vector is a multiply per value
— which is why ALP decompression is fast — and random access decodes just
the containing vector.
"""
from __future__ import annotations

import numpy as np

from ..core.bitstream import bits_for, pack_bits, read_packed

__all__ = ["ALPCodec", "ALP"]

_VECTOR = 1024
_MAX_E = 16
_POW10 = np.array([10.0 ** e for e in range(_MAX_E + 1)])
_IPOW10 = np.array([10.0 ** -e for e in range(_MAX_E + 1)])


class _Vec:
    __slots__ = ("e", "f", "base", "width", "words", "nbits", "exc_pos", "exc_val", "n")


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
            best = (size, e, exact, d, lo)
    v = _Vec()
    v.n = n
    if best is None:  # all-exception vector
        v.e = v.f = 0
        v.base = 0
        v.width = 0
        v.words = np.zeros(1, dtype=np.uint64)
        v.nbits = 0
        v.exc_pos = np.arange(n, dtype=np.int64)
        v.exc_val = x.copy()
        return v
    _, e, exact, d, lo = best
    # factor f: strip common trailing decimal zeros of the digits
    dints = d[exact].astype(np.int64)
    f = 0
    while f < e:
        if np.all(dints % 10 == 0):
            dints //= 10
            f += 1
        else:
            break
    lo_i = int(dints.min()) if len(dints) else 0
    packed = dints - lo_i
    width = bits_for(int(packed.max())) if len(packed) and packed.max() > 0 else 0
    # non-exception slots hold their FOR value; exception slots hold 0
    slots = np.zeros(n, dtype=np.int64)
    slots[exact] = packed
    v.e, v.f, v.base, v.width = e, f, lo_i, width
    v.words, v.nbits = pack_bits(slots, np.full(n, width)), n * width
    v.exc_pos = np.nonzero(~exact)[0].astype(np.int64)
    v.exc_val = x[~exact].copy()
    return v


def _decode_vector(v: _Vec) -> np.ndarray:
    if v.width:
        digits = read_packed(v.words, v.width, np.arange(v.n)).astype(np.int64) + v.base
    else:
        digits = np.full(v.n, v.base, dtype=np.int64)
    # digits * 10^f is an exact float (it equals the original d < 2^51),
    # so dividing by 10^e reproduces the encode-side exactness test bit-for-bit
    out = (digits.astype(np.float64) * _POW10[v.f]) / _POW10[v.e]
    if len(v.exc_pos):
        out[v.exc_pos] = v.exc_val
    return out


class ALP:
    def __init__(self, values: np.ndarray):
        x = np.asarray(values, dtype=np.float64)
        self.n = len(x)
        self.vectors = [
            _encode_vector(x[i:i + _VECTOR]) for i in range(0, self.n, _VECTOR)
        ]

    @property
    def size_bytes(self) -> int:
        bits = 0
        for v in self.vectors:
            bits += 64  # per-vector header: e, f, base, width
            bits += v.nbits
            bits += len(v.exc_pos) * (64 + 16)
        return (bits + 7) // 8 + 16

    def decompress(self) -> np.ndarray:
        return np.concatenate([_decode_vector(v) for v in self.vectors])

    def access(self, k: int) -> float:
        """Random access = decode the containing 1024-vector, pick the value
        (matching how ALP is exercised in the paper's random-access test)."""
        v = self.vectors[k // _VECTOR]
        return float(_decode_vector(v)[k % _VECTOR])

    def scan(self, lo: int, hi: int) -> np.ndarray:
        """Range query [lo, hi): decode the touched vectors, slice."""
        if lo == hi:
            return np.empty(0, dtype=np.float64)
        v0, v1 = lo // _VECTOR, (hi - 1) // _VECTOR
        full = np.concatenate([_decode_vector(self.vectors[v]) for v in range(v0, v1 + 1)])
        off = lo - v0 * _VECTOR
        return full[off:off + (hi - lo)]


class ALPCodec:
    name = "ALP"

    def compress(self, values: np.ndarray) -> ALP:
        return ALP(values)
