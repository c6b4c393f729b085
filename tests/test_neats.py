"""NeaTS end-to-end: lossless roundtrip, random access, scan, serialisation."""
import numpy as np
import pytest

from repro.core.models import Linear
from repro.core.neats import NeaTS
from repro.tsdata import DATASETS, load

N_TEST = 1536


@pytest.fixture(scope="module")
def compressed():
    """One SNeaTS artefact per dataset (module-scoped: compression is the
    expensive part; every test below reuses them)."""
    out = {}
    for name in DATASETS:
        ts = load(name, n=N_TEST)
        out[name] = (ts, NeaTS.compress(ts.ints, variant="sneats"))
    return out


class TestLosslessRoundtrip:
    @pytest.mark.parametrize("name", DATASETS)
    def test_decompress_equals_original(self, compressed, name):
        ts, c = compressed[name]
        assert np.array_equal(c.decompress(), ts.ints)

    @pytest.mark.parametrize("name", DATASETS)
    def test_random_access(self, compressed, name):
        ts, c = compressed[name]
        rng = np.random.default_rng(1)
        for k in rng.integers(0, ts.n, 50):
            assert c.access(int(k)) == ts.ints[k]

    def test_access_agrees_with_decompress_on_exponential_fragments(self):
        """access() evaluates exponential fragments with the encoder's np.exp:
        math.exp differs in the last bit here and floor() lands one off
        (access(795) gave 1227 for 1228)."""
        ys = load("DU", n=16384, seed=1237241459).ints[:1024]
        c = NeaTS.compress(ys)
        out = c.decompress()
        assert np.array_equal(out, ys)
        assert [c.access(k) for k in range(len(ys))] == out.tolist()

    @pytest.mark.parametrize("name", DATASETS[:6])
    def test_succinct_access_agrees(self, compressed, name):
        """Algorithm 3 through the Elias-Fano + wavelet structures gives the
        same answers as the cached fast path."""
        ts, c = compressed[name]
        rng = np.random.default_rng(2)
        for k in rng.integers(0, ts.n, 25):
            assert c.access_succinct(int(k)) == c.access(int(k)) == ts.ints[k]

    @pytest.mark.parametrize("name", DATASETS[:6])
    def test_scan_ranges(self, compressed, name):
        ts, c = compressed[name]
        for lo, hi in [(0, ts.n), (0, 1), (ts.n - 1, ts.n), (100, 900), (5, 5)]:
            assert np.array_equal(c.scan(lo, hi), ts.ints[lo:hi])

    @pytest.mark.parametrize("name", DATASETS[:6])
    def test_serialise_roundtrip(self, compressed, name):
        ts, c = compressed[name]
        c2 = NeaTS.from_bytes(c.to_bytes())
        assert np.array_equal(c2.decompress(), ts.ints)
        assert c2.access(ts.n // 2) == ts.ints[ts.n // 2]
        assert np.array_equal(c2.scan(10, 200), ts.ints[10:200])

    @pytest.mark.parametrize("name", DATASETS)
    def test_compresses(self, compressed, name):
        ts, c = compressed[name]
        assert c.size_bytes < ts.original_bytes


class TestVariants:
    def test_leats_is_linear_only(self):
        ts = load("IT", n=N_TEST)
        c = NeaTS.compress(ts.ints, variant="leats")
        assert np.array_equal(c.decompress(), ts.ints)
        assert set(c._params_by_kind) == {0}  # kind id 0 == linear

    def test_neats_not_worse_than_leats_much(self):
        """Full family set should be <= linear-only + small serialisation
        noise (Section IV-C1: LeaTS ratio is 0.89% worse than NeaTS)."""
        ts = load("IT", n=N_TEST)
        full = NeaTS.compress(ts.ints).size_bytes
        lin = NeaTS.compress(ts.ints, variant="leats").size_bytes
        assert full <= lin * 1.02

    def test_sneats_close_to_neats(self):
        ts = load("WD", n=N_TEST)
        full = NeaTS.compress(ts.ints).size_bytes
        sel = NeaTS.compress(ts.ints, variant="sneats").size_bytes
        assert sel <= full * 1.35  # paper: 8.18% worse on average

    def test_bv_index_variant(self):
        ts = load("CT", n=N_TEST)
        c = NeaTS.compress(ts.ints, variant="sneats", index="bv")
        rng = np.random.default_rng(3)
        for k in rng.integers(0, ts.n, 40):
            assert c.access_succinct(int(k)) == ts.ints[k]


class TestEdgeCases:
    def test_constant_series(self):
        ys = np.full(2000, -123456, dtype=np.int64)
        c = NeaTS.compress(ys)
        assert np.array_equal(c.decompress(), ys)
        assert c.m == 1
        assert c.size_bytes < 500

    def test_single_value(self):
        ys = np.asarray([42], dtype=np.int64)
        c = NeaTS.compress(ys)
        assert c.decompress().tolist() == [42]
        assert c.access(0) == 42

    def test_two_values(self):
        ys = np.asarray([-5, 900], dtype=np.int64)
        c = NeaTS.compress(ys)
        assert c.decompress().tolist() == [-5, 900]

    def test_negative_values(self):
        rng = np.random.default_rng(0)
        ys = (rng.normal(-1e6, 100, 1000).cumsum()).astype(np.int64)
        c = NeaTS.compress(ys)
        assert np.array_equal(c.decompress(), ys)

    def test_large_magnitudes(self):
        rng = np.random.default_rng(1)
        base = int(4e13)
        ys = base + rng.integers(-1000, 1000, 1500).cumsum()
        c = NeaTS.compress(ys)
        assert np.array_equal(c.decompress(), ys)

    def test_alternating(self):
        ys = np.tile([0, 1000], 500).astype(np.int64)
        c = NeaTS.compress(ys, variant="leats")
        assert np.array_equal(c.decompress(), ys)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            NeaTS.compress(np.asarray([], dtype=np.int64))

    def test_access_out_of_range(self):
        c = NeaTS.compress(np.asarray([1, 2, 3], dtype=np.int64))
        with pytest.raises(IndexError):
            c.access(3)
        with pytest.raises(IndexError):
            c.access(-1)

    def test_scan_out_of_range(self):
        c = NeaTS.compress(np.asarray([1, 2, 3], dtype=np.int64))
        with pytest.raises(IndexError):
            c.scan(0, 4)

    def test_explicit_families_and_eps(self):
        ys = (np.arange(500) * 3 + 7).astype(np.int64)
        c = NeaTS.compress(ys, families=[Linear()], epsilons=[0])
        assert c.m == 1
        assert np.array_equal(c.decompress(), ys)

    def test_shift_header_roundtrip(self):
        """Positivity shift must survive serialisation."""
        ys = (np.arange(800) - 400).astype(np.int64)  # negative values
        c = NeaTS.compress(ys)  # exponential in F -> shift > 0
        assert c.shift > 0
        c2 = NeaTS.from_bytes(c.to_bytes())
        assert c2.shift == c.shift
        assert np.array_equal(c2.decompress(), ys)
