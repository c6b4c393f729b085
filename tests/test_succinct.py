"""Succinct substrates: Elias-Fano, rank bitvector, wavelet matrix."""
import bisect

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.encoder_reference import EliasFano
from tests.succinct_reference import EliasFanoReader, RankBitvector
from tests.wavelet_reference import WaveletTree


def _read(vals) -> EliasFanoReader:
    return EliasFanoReader(EliasFano(vals).serialize())


class TestEliasFano:
    @given(st.lists(st.integers(0, 10**7), min_size=0, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_access_roundtrip(self, vals):
        vals = sorted(vals)
        assert _read(vals).to_list() == vals

    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=200), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_rank(self, vals, q):
        vals = sorted(vals)
        assert _read(vals).rank(q) == bisect.bisect_right(vals, q)

    def test_predecessor_index(self):
        ef = _read([0, 5, 10])
        assert ef.predecessor_index(0) == 0
        assert ef.predecessor_index(4) == 0
        assert ef.predecessor_index(5) == 1
        assert ef.predecessor_index(100) == 2

    def test_decreasing_raises(self):
        with pytest.raises(ValueError):
            EliasFano([3, 1])

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            EliasFano([-1, 2])

    def test_size_is_quasi_succinct(self):
        """n log(u/n) + 2n bits, way below 64n for dense sequences."""
        vals = list(range(0, 100000, 10))
        ef = EliasFano(vals)
        assert ef.size_bits < 10 * len(vals)

    @given(st.lists(st.integers(0, 10**7), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_serialize_roundtrip(self, vals):
        vals = sorted(vals)
        blob = b"x" + EliasFano(vals).serialize()
        ef = EliasFanoReader(blob, 1)
        assert ef.end == len(blob)
        assert ef.to_list() == vals and ef[len(vals) - 1] == vals[-1]
        q = vals[len(vals) // 2]
        assert ef.rank(q) == bisect.bisect_right(vals, q)


class TestRankBitvector:
    @given(st.sets(st.integers(0, 4999), max_size=400), st.integers(0, 5000))
    @settings(max_examples=60, deadline=None)
    def test_rank1(self, positions, q):
        pos = sorted(positions)
        bv = RankBitvector(pos, 5000)
        assert bv.rank1(q) == bisect.bisect_left(pos, q)

    @given(st.sets(st.integers(0, 999), min_size=1, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_predecessor_one(self, positions):
        pos = sorted(positions)
        bv = RankBitvector(pos, 1000)
        for q in [0, pos[0], pos[-1], 999]:
            expect = max((p for p in pos if p <= q), default=-1)
            assert bv.predecessor_one(q) == expect

    def test_get(self):
        bv = RankBitvector([0, 63, 64, 512], 1000)
        for i in range(1000):
            assert bv.get(i) == (i in {0, 63, 64, 512})

    def test_out_of_range(self):
        bv = RankBitvector([1], 10)
        with pytest.raises(IndexError):
            bv.get(10)
        with pytest.raises(ValueError):
            RankBitvector([10], 10)


class TestWaveletTree:
    @given(st.integers(2, 8), st.lists(st.integers(0, 7), max_size=300), st.data())
    @settings(max_examples=60, deadline=None)
    def test_access_and_rank(self, sigma, raw, data):
        syms = [s % sigma for s in raw]
        wt = WaveletTree(syms, sigma)
        if syms:
            i = data.draw(st.integers(0, len(syms) - 1))
            assert wt.access(i) == syms[i]
        q = data.draw(st.integers(0, len(syms)))
        s = data.draw(st.integers(0, sigma - 1))
        assert wt.rank(s, q) == sum(1 for x in syms[:q] if x == s)

    def test_out_of_alphabet_raises(self):
        with pytest.raises(ValueError):
            WaveletTree([5], 4)

    def test_rank_all_symbols_sums_to_length(self):
        rng = np.random.default_rng(0)
        syms = rng.integers(0, 5, 500).tolist()
        wt = WaveletTree(syms, 5)
        assert sum(wt.rank(s, len(syms)) for s in range(5)) == len(syms)

    def test_paper_usage_pattern(self):
        """P_f[K.rank_f(i)] addressing: rank over prefix [0, i+1) minus 1
        gives the index of fragment i's params within its kind array."""
        syms = [0, 1, 0, 2, 1, 0]
        wt = WaveletTree(syms, 3)
        per_kind = {0: [], 1: [], 2: []}
        for i, s in enumerate(syms):
            per_kind[s].append(i)
        for i, s in enumerate(syms):
            r = wt.rank(s, i + 1) - 1
            assert per_kind[s][r] == i
