"""Chimp and Chimp128 XOR compression (Liakos et al., PVLDB 2022).

Chimp refines Gorilla with 2-bit flags and a rounded leading-zero code:

* ``00`` — XOR is zero;
* ``01`` — trailing zeros > 6: 3-bit leading code + 6-bit centre length +
  centre bits (drops the trailing zeros entirely);
* ``10`` — leading count equal to the previous one: ``64 - lead`` bits;
* ``11`` — new leading count: 3-bit leading code + ``64 - lead`` bits.

ChimpN picks, among the previous N values, the reference whose XOR has
the most trailing zeros (we scan the window; the original uses a hash on
the low bits) and stores its offset in ``log2 N`` bits in the ``00`` and
``01`` branches.  Chimp is ChimpN with N = 1: the reference is always the
previous value and the offset takes no bits, so one encoder and one
decoder serve both (``Chimp128`` has N = 128 and a 7-bit offset).
"""
from __future__ import annotations

import numpy as np

from ..core.bitstream import BitReader, pack_bits
from .gorilla import _clz64

__all__ = ["ChimpCodec", "Chimp128Codec"]

_ROUND = [0, 8, 12, 16, 18, 20, 22, 24]  # leading-zero rounding table


def _lead_code(lead: int) -> int:
    """Largest table index whose value is <= lead."""
    code = 0
    for i, v in enumerate(_ROUND):
        if v <= lead:
            code = i
    return code


def _trailing_zeros(x: np.ndarray) -> np.ndarray:
    """Trailing zero bits of each uint64, 64 for 0 (``gorilla._ctz64``)."""
    low = (x & (~x + np.uint64(1))).astype(np.float64)  # the lowest set bit, exactly
    return np.where(x == 0, 64, np.frexp(low)[1] - 1)


def _references(vals: np.ndarray, window: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each value's reference among the ``window`` before it: the one whose
    XOR has the most trailing zeros, the earliest on a tie.  Returns the
    offsets ``d`` (value ``i`` refers to ``i - d``), the XORs and their
    trailing zeros; entry 0 has none and keeps ``d = 1``."""
    n = len(vals)
    offsets = np.ones(n, dtype=np.int64)
    tzs = np.full(n, -1, dtype=np.int64)
    for d in range(min(window, n - 1), 0, -1):  # far to near: strict > keeps the earliest
        tz = _trailing_zeros(vals[d:] ^ vals[:-d])
        better = tz > tzs[d:]
        tzs[d:][better] = tz[better]
        offsets[d:][better] = d
    xors = vals ^ vals[np.arange(n) - offsets]
    return offsets, xors, tzs


class Chimp128Codec:
    name = "Chimp128"
    domain = "bits"
    #: N, the number of previous values searched for the reference
    window = 128

    def compress(self, values: np.ndarray) -> bytes:
        vals = np.asarray(values, dtype=np.uint64)
        n = len(vals)
        if n == 0:
            return b""
        idx_bits = (self.window - 1).bit_length()
        ints = vals.tolist()
        offsets, xors, tzs = (a.tolist() for a in _references(vals, self.window))
        fields, widths = [ints[0]], [64]
        lead_prev = -1
        for i in range(1, n):
            v = ints[i]
            best_tz, best_xor = tzs[i], xors[i]
            idx = offsets[i] - 1  # 0 == immediately previous
            if best_xor == 0:
                fields += [0b00, idx]
                widths += [2, idx_bits]
                lead_prev = 65  # sentinel: next '10' cannot match
            elif best_tz > 6:
                code = _lead_code(_clz64(best_xor))
                centre = 64 - _ROUND[code] - best_tz
                # flag '01' in paper order; LSB-first here
                fields += [0b10, idx, code, centre, best_xor >> best_tz]
                widths += [2, idx_bits, 3, 6, centre]
                lead_prev = 65
            else:
                # the Chimp path against the previous value
                xor = v ^ ints[i - 1]
                code = _lead_code(_clz64(xor))
                lead = _ROUND[code]
                if lead == lead_prev:
                    fields += [0b01, xor]
                    widths += [2, 64 - lead]
                else:
                    fields += [0b11, code, xor]
                    widths += [2, 3, 64 - lead]
                    lead_prev = lead
        words = pack_bits(np.array(fields, dtype=np.uint64), widths)
        return n.to_bytes(8, "little") + sum(widths).to_bytes(8, "little") + words.tobytes()

    def decompress(self, blob: bytes, n_values: int) -> np.ndarray:
        if not blob:
            return np.empty(0, dtype=np.uint64)
        n = int.from_bytes(blob[:8], "little")
        nbits = int.from_bytes(blob[8:16], "little")
        r = BitReader(np.frombuffer(blob, dtype=np.uint64, offset=16), nbits)
        if not 0 < n <= nbits:  # every value takes at least one bit
            raise ValueError(f"{n} values in {nbits} bits")
        idx_bits = (self.window - 1).bit_length()
        out = [0] * n
        pos = 0
        out[0] = r.read(pos, 64)
        pos += 64
        lead_prev = -1
        for i in range(1, n):
            flag = r.read(pos, 2)
            pos += 2
            if flag == 0b00:
                idx = r.read(pos, idx_bits)
                pos += idx_bits
                if idx >= i:
                    raise ValueError(f"value {i} refers to a value before the first")
                out[i] = out[i - 1 - idx]
                lead_prev = 65
            elif flag == 0b10:  # centre case
                idx = r.read(pos, idx_bits)
                pos += idx_bits
                if idx >= i:
                    raise ValueError(f"value {i} refers to a value before the first")
                code = r.read(pos, 3)
                pos += 3
                centre = r.read(pos, 6)
                pos += 6
                lead = _ROUND[code]
                bits = r.read(pos, centre)
                pos += centre
                trail = 64 - lead - centre
                out[i] = out[i - 1 - idx] ^ (bits << trail)
                lead_prev = 65
            elif flag == 0b01:  # same leading
                xor = r.read(pos, 64 - lead_prev)
                pos += 64 - lead_prev
                out[i] = out[i - 1] ^ xor
            else:  # new leading
                code = r.read(pos, 3)
                pos += 3
                lead = _ROUND[code]
                xor = r.read(pos, 64 - lead)
                pos += 64 - lead
                out[i] = out[i - 1] ^ xor
                lead_prev = lead
        return np.asarray(out, dtype=np.uint64)


class ChimpCodec(Chimp128Codec):
    name = "Chimp"
    window = 1
