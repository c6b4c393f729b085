"""Gorilla XOR compression for 64-bit values (Pelkonen et al., VLDB 2015).

The classic scheme: XOR each value with its predecessor and encode

* ``0``                      — XOR is zero;
* ``10`` + meaningful bits   — leading/trailing zeros fit the previous window;
* ``11`` + 5-bit leading + 6-bit length + meaningful bits — new window.

Operates on the raw 64-bit payload (doubles are passed as their IEEE bits,
which is what Gorilla was designed for).
"""
from __future__ import annotations

import numpy as np

from ..core.bitstream import BitReader, pack_bits

__all__ = ["GorillaCodec"]

_MASK64 = (1 << 64) - 1


def _clz64(x: int) -> int:
    return 64 - x.bit_length() if x else 64


def _ctz64(x: int) -> int:
    return (x & -x).bit_length() - 1 if x else 64


class GorillaCodec:
    """Stream codec interface: ``compress(uint64 array) -> bytes`` and
    ``decompress(bytes, n_values) -> uint64 array``; the XOR codecs store
    the count in their header and ignore ``n_values``."""

    name = "Gorilla"
    domain = "bits"  # consumes raw 64-bit payloads

    def compress(self, values: np.ndarray) -> bytes:
        vals = np.asarray(values, dtype=np.uint64)
        if len(vals) == 0:
            return b""
        prev = int(vals[0])
        fields, widths = [prev], [64]
        lead_prev, tlen_prev = -1, -1
        for v in vals[1:].tolist():
            xor = v ^ prev
            if xor == 0:
                fields.append(0)
                widths.append(1)
            else:
                lead = min(_clz64(xor), 31)
                trail = _ctz64(xor)
                if lead_prev >= 0 and lead >= lead_prev and trail >= 64 - lead_prev - tlen_prev:
                    # '10' control (LSB-first storage)
                    fields += [0b01, xor >> (64 - lead_prev - tlen_prev)]
                    widths += [2, tlen_prev]
                else:
                    tlen = 64 - lead - trail
                    fields += [0b11, lead, tlen - 1, xor >> trail]
                    widths += [2, 5, 6, tlen]
                    lead_prev, tlen_prev = lead, tlen
            prev = v
        words = pack_bits(np.array(fields, dtype=np.uint64), widths)
        return len(vals).to_bytes(8, "little") + sum(widths).to_bytes(8, "little") + words.tobytes()

    def decompress(self, blob: bytes, n_values: int) -> np.ndarray:
        if not blob:
            return np.empty(0, dtype=np.uint64)
        n = int.from_bytes(blob[:8], "little")
        nbits = int.from_bytes(blob[8:16], "little")
        words = np.frombuffer(blob, dtype=np.uint64, offset=16)
        r = BitReader(words, nbits)
        if not 0 < n <= nbits:  # every value takes at least one bit
            raise ValueError(f"{n} values in {nbits} bits")
        out = np.empty(n, dtype=np.uint64)
        pos = 0
        prev = r.read(0, 64)
        pos += 64
        out[0] = prev
        lead_prev, tlen_prev = -1, -1
        for i in range(1, n):
            ctrl = r.read(pos, 1)
            pos += 1
            if ctrl == 0:
                out[i] = prev
                continue
            ctrl2 = r.read(pos, 1)
            pos += 1
            if ctrl2 == 0:  # '10': reuse window
                bits = r.read(pos, tlen_prev)
                pos += tlen_prev
                xor = bits << (64 - lead_prev - tlen_prev)
            else:  # '11': new window
                lead = r.read(pos, 5)
                pos += 5
                tlen = r.read(pos, 6) + 1
                pos += 6
                bits = r.read(pos, tlen)
                pos += tlen
                trail = 64 - lead - tlen
                xor = bits << trail
                lead_prev, tlen_prev = lead, tlen
            prev = (prev ^ xor) & _MASK64
            out[i] = prev
        return out
