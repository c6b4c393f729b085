"""General-purpose lossless compressors (Section IV competitors).

All five of the paper's general-purpose codecs are available authentically
in this container: Xz via the stdlib ``lzma`` module (same .xz format the
paper uses) and Brotli / Zstd / Lz4 / Snappy via pyarrow's bundled real
implementations.  Each consumes the little-endian byte image of the 64-bit
values (the paper's fixed-precision integer transformation).
"""
from __future__ import annotations

import lzma

import numpy as np
import pyarrow as pa

__all__ = ["GPCodec", "GP_CODECS"]


def _snappy_length(blob: bytes) -> int:
    """The uncompressed length that opens a raw Snappy block (a varint)."""
    size = 0
    for shift, byte in zip(range(0, 35, 7), blob):
        size |= (byte & 0x7F) << shift
        if byte < 0x80:
            return size
    raise ValueError("Snappy payload without a length preamble")


class GPCodec:
    domain = "int"  # consumes int64 values

    def __init__(self, name: str):
        self.name = name
        self._codec = None if name == "Xz" else pa.Codec(
            {"Brotli": "brotli", "Zstd": "zstd", "Lz4": "lz4", "Snappy": "snappy"}[name])

    def compress(self, values: np.ndarray) -> bytes:
        raw = np.ascontiguousarray(values).tobytes()
        if self._codec is None:
            return lzma.compress(raw, preset=6)
        return self._codec.compress(raw, asbytes=True)

    def decompress(self, blob: bytes, n_values: int) -> np.ndarray:
        """The values that ``blob`` holds.  Xz, Brotli and Lz4 decode their
        whole stream, however many values that is; Zstd and Snappy decode
        into ``n_values`` values and raise if the payload holds another
        count (Zstd's own check, Snappy's length preamble)."""
        if self._codec is None:
            raw = lzma.decompress(blob)
        elif self.name in ("Brotli", "Lz4"):
            raw = pa.CompressedInputStream(pa.BufferReader(blob), self._codec.name).read()
        else:
            if self.name == "Snappy" and (size := _snappy_length(blob)) != 8 * n_values:
                raise ValueError(f"the Snappy payload holds {size} bytes, not {8 * n_values}")
            raw = self._codec.decompress(blob, decompressed_size=8 * n_values, asbytes=True)
        return np.frombuffer(raw, dtype=np.int64)


GP_CODECS = ["Xz", "Brotli", "Zstd", "Lz4", "Snappy"]
