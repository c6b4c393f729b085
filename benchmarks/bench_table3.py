"""Table III benchmarks: the 13 lossless codecs.

Per codec: compression, full decompression, and random access on one
representative dataset each at a fixed size — the per-operation numbers
behind the MB/s columns of Table III. ``jobs/table3_lossless.py``
regenerates the full 16-dataset table.
"""
import numpy as np
import pytest

from repro.harness import ALL_LOSSLESS, CODECS, input_of
from repro.tsdata import load

N = 3072
DS = "IT"

#: codecs whose pure-Python compression takes over ~0.1 s at N points get
#: one benchmark round instead of three
_SLOW_COMPRESS = {"Chimp128", "TSXor"}


@pytest.fixture(scope="module")
def ts():
    return load(DS, n=N)


@pytest.fixture(scope="module")
def artifacts(ts):
    out = {}
    for name in ALL_LOSSLESS:
        domain, build = CODECS[name]
        vals = input_of(ts, domain)
        out[name] = (vals, build(vals))
    return out


@pytest.mark.parametrize("name", ALL_LOSSLESS)
def test_bench_compress(benchmark, ts, name):
    domain, build = CODECS[name]
    vals = input_of(ts, domain)
    rounds = 1 if name in _SLOW_COMPRESS else 3
    art = benchmark.pedantic(build, args=(vals,), rounds=rounds, iterations=1)
    assert art.size_bytes > 0


@pytest.mark.parametrize("name", ALL_LOSSLESS)
def test_bench_decompress(benchmark, artifacts, name):
    vals, art = artifacts[name]
    out = benchmark.pedantic(art.decompress, rounds=3, iterations=1)
    assert np.array_equal(np.asarray(out), vals)


@pytest.mark.parametrize("name", ALL_LOSSLESS)
def test_bench_random_access(benchmark, artifacts, name):
    vals, art = artifacts[name]
    rng = np.random.default_rng(0)
    idx = rng.integers(0, len(vals), 64)

    def batch():
        for k in idx:
            art.access(int(k))

    benchmark.pedantic(batch, rounds=3, iterations=1)
    for k in idx[:8]:
        assert art.access(int(k)) == vals[k]


def test_bench_neats_serialise(benchmark, artifacts):
    vals, art = artifacts["NeaTS"]
    blob = benchmark.pedantic(art.to_bytes, rounds=3, iterations=1)
    assert len(blob) < 8 * len(vals)
