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


class GPCodec:
    domain = "int"  # consumes int64 values

    def __init__(self, name: str):
        self.name = name
        if name == "Xz":
            self._c = lambda b: lzma.compress(b, preset=6)
            self._d = lambda b, n: lzma.decompress(b)
        else:
            codec = {"Brotli": "brotli", "Zstd": "zstd", "Lz4": "lz4", "Snappy": "snappy"}[name]
            self._codec = pa.Codec(codec)
            self._c = lambda b: self._codec.compress(b, asbytes=True)
            self._d = lambda b, n: self._codec.decompress(b, decompressed_size=n, asbytes=True)

    def compress(self, values: np.ndarray) -> bytes:
        return self._c(np.ascontiguousarray(values).tobytes())

    def decompress(self, blob: bytes, n_values: int) -> np.ndarray:
        """The values of ``blob``: Xz decodes as many as the stream holds,
        the pyarrow codecs fill ``n_values`` of them."""
        return np.frombuffer(self._d(blob, n_values * 8), dtype=np.int64)


GP_CODECS = ["Xz", "Brotli", "Zstd", "Lz4", "Snappy"]
