"""The Table III codec table and its timers.

:data:`CODECS` maps each Table III name to the input domain the codec
consumes and a function that builds its artifact from those values.  Every
artifact answers::

    size_bytes       -> honest serialised size
    decompress()     -> the original value array
    access(k)        -> one value (random access operation)

XOR codecs consume the IEEE-754 bits of the float values (``"bits"``) and
ALP the floats themselves (``"float"``); NeaTS / DAC / LeCo and the
general-purpose codecs consume the fixed-precision int64 values
(``"int"``) — mirroring Section IV-A1 ("unless the compressor is designed
for doubles").  Codecs without native random access go through the
1000-value :class:`BlockStore` wrapper (Section IV-A2); ALP is a
``BlockStore`` over its own 1024-value vectors.
"""
from __future__ import annotations

import time
from functools import partial

import numpy as np

from .baselines.alp import ALP
from .baselines.blockstore import BlockStore
from .baselines.chimp import Chimp128Codec, ChimpCodec
from .baselines.dac import DAC
from .baselines.gorilla import GorillaCodec
from .baselines.gp import GP_CODECS, GPCodec
from .baselines.leco import LeCo
from .baselines.tsxor import TSXorCodec
from .core.neats import NeaTS
from .tsdata import TimeSeries

__all__ = ["ALL_LOSSLESS", "CODECS", "FIG4", "input_of", "measure", "median_time"]


#: Table III column order: 5 general-purpose + 8 special-purpose
ALL_LOSSLESS = (
    GP_CODECS
    + ["Gorilla", "Chimp", "Chimp128", "TSXor", "DAC", "LeCo", "ALP", "NeaTS"]
)


def _blockwise(codec):
    return codec.domain, partial(BlockStore, codec)


#: Table III name -> (input domain, values -> artifact), plus LeaTS and
#: SNeaTS, the NeaTS variants of Fig. 2
CODECS = {
    **{name: _blockwise(GPCodec(name)) for name in GP_CODECS},
    **{c.name: _blockwise(c)
       for c in (GorillaCodec(), ChimpCodec(), Chimp128Codec(), TSXorCodec())},
    "DAC": ("int", DAC.build),
    "LeCo": ("int", LeCo),
    "ALP": ("float", ALP),
    **{name: ("int", partial(NeaTS.compress, variant=name.lower()))
       for name in ("NeaTS", "LeaTS", "SNeaTS")},
}

#: runs of a timed call whose median :func:`median_time` reports: one run of
#: ``decompress()`` or of an access loop moves by ~10 % between runs of the
#: same code
_REPEATS = 5

#: Fig. 4 label -> codec table name: NeaTS runs as its SNeaTS variant
FIG4 = {"NeaTS": "SNeaTS", "DAC": "DAC", "ALP": "ALP", "Lz4": "Lz4"}


def input_of(ts: TimeSeries, domain: str) -> np.ndarray:
    """The values of ``ts`` in a codec's input domain."""
    if domain == "bits":
        return ts.floats.view(np.uint64)
    return ts.floats if domain == "float" else ts.ints


def median_time(fn) -> tuple[object, float]:
    """The result of ``fn()`` and the median of its wall time over
    ``_REPEATS`` calls: the timer of ``measure``'s decompression and access
    columns, of Table II, of Fig. 2 and of Fig. 4."""
    times = []
    for _ in range(_REPEATS):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return out, float(np.median(times))


def measure(name: str, ts: TimeSeries, *, n_access: int = 2000) -> dict:
    """Compress, decompress, random-access one dataset with one codec, and
    check both answers against the input.  Returns the Table III row:
    ``ratio`` in percent, ``comp``/``dec``/``ra`` in MB/s.  Compression is
    timed once; decompression and the access loop are each the median of
    ``_REPEATS`` runs."""
    domain, build = CODECS[name]
    values = input_of(ts, domain)
    mb = ts.original_bytes / 1e6

    t0 = time.perf_counter()
    art = build(values)
    t_comp = time.perf_counter() - t0

    dec, t_dec = median_time(art.decompress)
    if not np.array_equal(np.asarray(dec), values):
        raise AssertionError(f"{name} is not lossless on {ts.name}")

    rng = np.random.default_rng(0)
    idx = rng.integers(0, ts.n, n_access)

    def access_loop():
        for k in idx:
            art.access(int(k))

    _, t_ra = median_time(access_loop)
    for k in idx[:20]:
        if art.access(int(k)) != values[k]:
            raise AssertionError(f"{name} random access wrong on {ts.name}@{k}")

    return {
        "dataset": ts.name,
        "codec": name,
        "ratio": 100.0 * art.size_bytes / ts.original_bytes,
        "comp": mb / t_comp if t_comp > 0 else float("inf"),
        "dec": mb / t_dec if t_dec > 0 else float("inf"),
        "ra": (n_access * 8 / 1e6) / t_ra if t_ra > 0 else float("inf"),
    }
