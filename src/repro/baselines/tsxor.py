"""TSXor byte-aligned window compression (Bruno et al., SPIRE 2021).

Keeps a window of the previous 127 values. Per value:

* the value equals a window entry       -> 1 control byte (offset 0..126);
* XOR with the most similar window entry is byte-sparse -> control byte
  ``128 + offset``, a descriptor byte (4-bit leading-zero-byte count,
  4-bit significant byte length), then the significant XOR bytes;
* otherwise                              -> control byte 127 + 8 literal bytes.

"Most similar" = the window entry whose XOR has the most leading+trailing
zero *bytes* (the paper's most-bits-in-common reference selection, at byte
granularity to stay byte-aligned).
"""
from __future__ import annotations

import numpy as np

__all__ = ["TSXorCodec"]

_WINDOW = 127


def _zero_bytes(x: int) -> tuple[int, int]:
    """(leading zero bytes, trailing zero bytes) of a 64-bit value."""
    if x == 0:
        return 8, 0
    b = x.to_bytes(8, "big")
    lead = 0
    for c in b:
        if c:
            break
        lead += 1
    trail = 0
    for c in reversed(b):
        if c:
            break
        trail += 1
    return lead, trail


class TSXorCodec:
    name = "TSXor"
    domain = "bits"

    def compress(self, values: np.ndarray) -> bytes:
        vals = [int(v) for v in np.asarray(values, dtype=np.uint64)]
        out = bytearray()
        out += len(vals).to_bytes(8, "little")
        window: list[int] = []
        for v in vals:
            done = False
            # case 1: exact match in window (most recent first)
            for off in range(len(window)):
                if window[off] == v:
                    out.append(off)
                    done = True
                    break
            if not done:
                # case 2: sparse XOR with the best reference
                best_off, best_score = -1, -1
                for off in range(len(window)):
                    x = v ^ window[off]
                    l, t = _zero_bytes(x)
                    if l + t > best_score:
                        best_off, best_score = off, l + t
                if best_off >= 0:
                    x = v ^ window[best_off]
                    l, t = _zero_bytes(x)
                    length = 8 - l - t
                    if 2 + length < 9 and length > 0:
                        out.append(128 + best_off)
                        out.append((l << 4) | length)
                        out += x.to_bytes(8, "big")[l:l + length]
                        done = True
            if not done:
                out.append(127)
                out += v.to_bytes(8, "big")
            window.insert(0, v)
            if len(window) > _WINDOW:
                window.pop()
        return bytes(out)

    def decompress(self, blob: bytes, n_values: int) -> np.ndarray:
        n = int.from_bytes(blob[:8], "little")
        pos = 8
        out = np.empty(n, dtype=np.uint64)
        window: list[int] = []
        for i in range(n):
            ctrl = blob[pos]
            pos += 1
            if ctrl < 127:
                v = window[ctrl]
            elif ctrl == 127:
                v = int.from_bytes(blob[pos:pos + 8], "big")
                pos += 8
            else:
                off = ctrl - 128
                desc = blob[pos]
                pos += 1
                l, length = desc >> 4, desc & 0xF
                chunk = blob[pos:pos + length]
                pos += length
                x = int.from_bytes(b"\x00" * l + chunk + b"\x00" * (8 - l - length), "big")
                v = window[off] ^ x
            out[i] = v
            window.insert(0, v)
            if len(window) > _WINDOW:
                window.pop()
        return out
