"""TSXor byte-aligned window compression (Bruno et al., SPIRE 2021).

Keeps a window of the previous 127 values. Per value:

* the value equals a window entry       -> 1 control byte (offset 0..126);
* XOR with the most similar window entry is byte-sparse -> control byte
  ``128 + offset``, a descriptor byte (4-bit leading-zero-byte count,
  4-bit significant byte length), then the significant XOR bytes;
* otherwise                              -> control byte 127 + 8 literal bytes.

"Most similar" = the window entry whose XOR has the most leading+trailing
zero *bytes* (the paper's most-bits-in-common reference selection, at byte
granularity to stay byte-aligned).  Both the equal entry and the most
similar one are the most recent on a tie.
"""
from __future__ import annotations

import numpy as np

from .chimp import _trailing_zeros

__all__ = ["TSXorCodec"]

_WINDOW = 127
_BYTE_BOUNDS = np.array([1 << s for s in range(0, 64, 8)], dtype=np.uint64)  # 2^0 ... 2^56


def _leading_zero_bytes(x: np.ndarray) -> np.ndarray:
    """Leading zero bytes of each uint64, 8 for 0: the byte boundaries above it.
    Exact in integers, where a float exponent rounds 2^56 - 1 up to 2^56."""
    return 8 - np.searchsorted(_BYTE_BOUNDS, x, side="right")


def _references(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value's reference among the ``_WINDOW`` before it: the one whose
    XOR has the most leading plus trailing zero bytes, the most recent on a
    tie.  An equal value scores 8 + 8, more than any other can, so it is
    the most recent equal value when there is one.  Returns the offsets
    (0 is the previous value; value 0 has none and gets -1) and the XORs."""
    n = len(vals)
    offsets = np.full(n, -1, dtype=np.int64)
    scores = np.full(n, -1, dtype=np.int64)
    for d in range(min(_WINDOW, n - 1), 0, -1):  # far to near: >= keeps the most recent
        x = vals[d:] ^ vals[:-d]
        score = _leading_zero_bytes(x) + _trailing_zeros(x) // 8
        better = score >= scores[d:]
        scores[d:][better] = score[better]
        offsets[d:][better] = d - 1
    return offsets, vals ^ vals[np.arange(n) - 1 - offsets]


class TSXorCodec:
    name = "TSXor"
    domain = "bits"

    def compress(self, values: np.ndarray) -> bytes:
        vals = np.asarray(values, dtype=np.uint64)
        offsets, xors = _references(vals)
        lead, trail = _leading_zero_bytes(xors), _trailing_zeros(xors) // 8
        out = bytearray(len(vals).to_bytes(8, "little"))
        for v, off, x, l, t in zip(vals.tolist(), offsets.tolist(), xors.tolist(),
                                   lead.tolist(), trail.tolist()):
            length = 8 - l - t  # significant XOR bytes; negative for x == 0
            if off >= 0 and x == 0:
                out.append(off)
            elif 0 < length < 7:  # 2 + length bytes beat the 9 of a literal
                out += bytes((128 + off, (l << 4) | length))
                out += x.to_bytes(8, "big")[l:l + length]
            else:
                out.append(127)
                out += v.to_bytes(8, "big")
        return bytes(out)

    def decompress(self, blob: bytes, n_values: int) -> np.ndarray:
        n = int.from_bytes(blob[:8], "little")
        pos = 8
        out = [0] * n
        for i in range(n):
            ctrl = blob[pos]
            pos += 1
            if ctrl == 127:
                out[i] = int.from_bytes(blob[pos:pos + 8], "big")
                pos += 8
                continue
            ref = i - 1 - (ctrl & 127)  # the offset is ctrl, or ctrl - 128 for an XOR
            if ref < 0:
                raise ValueError(f"value {i} refers to a value before the first")
            if ctrl < 127:
                out[i] = out[ref]
            else:
                l, length = blob[pos] >> 4, blob[pos] & 0xF
                x = int.from_bytes(blob[pos + 1:pos + 1 + length], "big") << 8 * (8 - l - length)
                pos += 1 + length
                out[i] = out[ref] ^ x
        if pos != len(blob):
            raise ValueError(f"a payload of {len(blob)} bytes whose {n} values end at byte {pos}")
        return np.asarray(out, dtype=np.uint64)
