"""Figure 4 benchmarks: range-query latency across range sizes.

One benchmark per (codec, range-size); ``jobs/range_queries.py``
regenerates the throughput table.
"""
import numpy as np
import pytest

from repro.harness import CODECS, FIG4, input_of
from repro.tsdata import load

N = 4096
RANGES = [10, 160, 2560]


@pytest.fixture(scope="module")
def ts():
    return load("IT", n=N)


@pytest.fixture(scope="module")
def artifacts(ts):
    out = {}
    for label, name in FIG4.items():
        domain, build = CODECS[name]
        vals = input_of(ts, domain)
        out[label] = (build(vals), vals)
    return out


@pytest.mark.parametrize("size", RANGES)
@pytest.mark.parametrize("codec", list(FIG4))
def test_bench_range_query(benchmark, artifacts, codec, size):
    art, vals = artifacts[codec]
    rng = np.random.default_rng(size)
    starts = rng.integers(0, N - size, 16)

    def batch():
        for s in starts:
            art.scan(int(s), int(s) + size)

    benchmark.pedantic(batch, rounds=3, iterations=1)
    s = int(starts[0])
    assert np.array_equal(art.scan(s, s + size), vals[s:s + size])
