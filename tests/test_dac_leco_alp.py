"""DAC, LeCo, ALP: roundtrips, native random access, scans."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.alp import ALP
from repro.baselines.dac import _WIDTHS, DAC, _size_bits, _zigzag
from repro.baselines.leco import LeCo
from repro.tsdata import DATASETS, load
from tests.succinct_reference import RankBitvector


class TestDAC:
    @pytest.mark.parametrize("name", DATASETS[:8])
    def test_dataset_roundtrip(self, name):
        ts = load(name, n=800)
        d = DAC.build(ts.ints)
        assert np.array_equal(d.decompress(), ts.ints)

    @given(st.lists(st.integers(-2**62, 2**62), min_size=1, max_size=150))
    @settings(max_examples=40, deadline=None)
    def test_random_int64(self, vals):
        arr = np.asarray(vals, dtype=np.int64)
        d = DAC(arr, 8)
        assert np.array_equal(d.decompress(), arr)

    @pytest.mark.parametrize("width", [2, 4, 8, 16])
    def test_all_widths(self, width):
        rng = np.random.default_rng(width)
        arr = rng.integers(-10**6, 10**6, 500)
        d = DAC(arr, width)
        assert np.array_equal(d.decompress(), arr)
        for k in [0, 250, 499]:
            assert d.access(k) == arr[k]

    def test_access_matches_decompress(self):
        ts = load("WD", n=600)
        d = DAC.build(ts.ints)
        full = d.decompress()
        rng = np.random.default_rng(0)
        for k in rng.integers(0, ts.n, 60):
            assert d.access(int(k)) == full[k]

    def test_scan(self):
        ts = load("CT", n=400)
        d = DAC.build(ts.ints)
        assert np.array_equal(d.scan(50, 150), ts.ints[50:150])

    def test_width_search_picks_smallest(self):
        arr = np.arange(1000, dtype=np.int64)
        best = DAC.build(arr)
        for w in (2, 4, 8, 16):
            assert best.size_bits <= DAC(arr, w).size_bits

    @pytest.mark.parametrize("name", DATASETS)
    def test_width_from_level_lengths_matches_building_all(self, name):
        """The width sized from the level lengths is the one that building
        every width and keeping the smallest (first on a tie) picks."""
        ints = load(name, n=8192).ints
        built = [DAC(ints, w) for w in _WIDTHS]
        want = min(built, key=lambda d: d.size_bits)
        got = DAC.build(ints)
        assert (got.width, got.size_bits) == (want.width, want.size_bits)
        assert [_size_bits(np.sort(_zigzag(ints)), w) for w in _WIDTHS] == [d.size_bits for d in built]

    @pytest.mark.parametrize("vals", [[], [0], [-1, 1], [2**63 - 1, -(2**63)], [3] * 700])
    def test_width_sizes_at_the_extremes(self, vals):
        arr = np.asarray(vals, dtype=np.int64)
        for w in _WIDTHS:
            assert _size_bits(np.sort(_zigzag(arr)), w) == DAC(arr, w).size_bits

    def test_zigzag_negatives(self):
        arr = np.asarray([-1, 0, 1, -2**40, 2**40], dtype=np.int64)
        d = DAC(arr, 4)
        assert np.array_equal(d.decompress(), arr)
        assert d.access(3) == -2**40


class TestLeCo:
    @pytest.mark.parametrize("name", DATASETS[:8])
    def test_dataset_roundtrip(self, name):
        ts = load(name, n=900)
        lc = LeCo(ts.ints)
        assert np.array_equal(lc.decompress(), ts.ints)

    @given(st.lists(st.integers(-10**12, 10**12), min_size=1, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_random_int64(self, vals):
        arr = np.asarray(vals, dtype=np.int64)
        lc = LeCo(arr)
        assert np.array_equal(lc.decompress(), arr)

    def test_access(self):
        ts = load("DP", n=700)
        lc = LeCo(ts.ints)
        rng = np.random.default_rng(1)
        for k in rng.integers(0, ts.n, 60):
            assert lc.access(int(k)) == ts.ints[k]

    def test_linear_data_compresses_hard(self):
        arr = (5 * np.arange(4000) + 17).astype(np.int64)
        lc = LeCo(arr)
        assert lc.size_bytes < 8 * len(arr) / 20

    def test_fragments_cover(self):
        ts = load("DU", n=700)
        lc = LeCo(ts.ints)
        assert lc.frags[0].start == 0 and lc.frags[-1].end == ts.n
        for a, b in zip(lc.frags, lc.frags[1:]):
            assert a.end == b.start


class TestALP:
    @pytest.mark.parametrize("name", DATASETS)
    def test_dataset_roundtrip_exact(self, name):
        ts = load(name, n=1200)
        al = ALP(ts.floats)
        out = al.decompress()
        assert np.array_equal(out, ts.floats), "ALP must be bit-exact"

    def test_access(self):
        ts = load("US", n=1500)
        al = ALP(ts.floats)
        rng = np.random.default_rng(2)
        for k in rng.integers(0, ts.n, 60):
            assert al.access(int(k)) == ts.floats[k]

    def test_scan(self):
        ts = load("GE", n=2100)
        al = ALP(ts.floats)
        for lo, hi in [(0, 100), (1000, 1048), (900, 2100), (2099, 2100)]:
            assert np.array_equal(al.scan(lo, hi), ts.floats[lo:hi])

    def test_exceptions_path(self):
        """Doubles that are not pseudodecimals must go to the exception list
        and still roundtrip exactly."""
        rng = np.random.default_rng(3)
        vals = rng.standard_normal(1500) * np.pi  # irrational-ish doubles
        al = ALP(vals)
        assert np.array_equal(al.decompress(), vals)
        assert sum(len(v.exc_pos) for v in al.payloads) > 1000

    def test_mixed_decimals_and_noise(self):
        rng = np.random.default_rng(4)
        vals = np.round(rng.normal(50, 10, 2000), 2)
        vals[::97] = rng.standard_normal(len(vals[::97]))  # sprinkle exceptions
        al = ALP(vals)
        assert np.array_equal(al.decompress(), vals)

    def test_fixed_precision_compresses_well(self):
        ts = load("CT", n=2048)  # 1 fractional digit
        al = ALP(ts.floats)
        assert al.size_bytes < 0.45 * 8 * ts.n

    def test_negative_values(self):
        vals = np.round(np.linspace(-100, -1, 1200), 3)
        al = ALP(vals)
        assert np.array_equal(al.decompress(), vals)

    def test_constant_vector(self):
        vals = np.full(1024, 2.5)
        al = ALP(vals)
        assert np.array_equal(al.decompress(), vals)
        assert al.size_bytes < 1024


def test_dac_size_counts_chunks_and_rank_bitvectors():
    """``size_bits`` is each level's packed chunks plus its continuation
    bitvector with rank directory, as the test reference lays it out."""
    ts = load("WD", n=3000)
    for width in (2, 4, 8, 16):
        d = DAC(ts.ints, width)
        expect = sum(len(c) * width + RankBitvector(np.nonzero(c)[0], len(c)).size_bits
                     for c in d._conts_bool)
        assert d.size_bits == expect
