"""Corollary 1: greedy piecewise eps-approximation (the test reference), and
PLA's kernel partition against it."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.pla import PLA
from repro.core import native
from repro.core.models import DEFAULT_FAMILIES, Linear, Radical
from repro.core.partition import frag_rows
from repro.tsdata import DATASETS, load

from tests.lp_oracle import longest_prefix
from tests.partition_reference import piecewise_partition


def _walk(seed, n=600, sigma=5.0):
    rng = np.random.default_rng(seed)
    return (rng.normal(0, sigma, n).cumsum() + 10000).astype(np.int64)


class TestGreedyPartition:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("eps", [1, 8, 64])
    def test_pieces_cover_and_bound(self, seed, eps):
        ys = _walk(seed)
        pieces = piecewise_partition(ys, Linear(), eps)
        assert pieces[0].start == 0 and pieces[-1].end == len(ys)
        for a, b in zip(pieces, pieces[1:]):
            assert a.end == b.start
        approx = native.evaluate(frag_rows(pieces, len(ys)), floor=False)
        assert np.max(np.abs(approx - ys)) <= eps + 1e-6

    @pytest.mark.parametrize("seed", range(6))
    def test_piece_count_is_minimal_linear(self, seed):
        """Greedy longest fragments minimise the piece count (classic PLA
        optimality); check against the brute-force oracle's greedy count."""
        ys = _walk(seed, n=150)
        eps = 6
        pieces = piecewise_partition(ys, Linear(), eps)
        # oracle greedy: repeatedly take the longest feasible prefix
        i, count = 0, 0
        while i < len(ys):
            segs = [(float(k - i + 1), float(ys[k] - eps), float(ys[k] + eps))
                    for k in range(i, len(ys))]
            ln = longest_prefix(segs)
            assert ln > 0
            i += ln
            count += 1
        assert len(pieces) == count

    def test_higher_eps_fewer_pieces(self):
        ys = _walk(3)
        counts = [len(piecewise_partition(ys, Linear(), e)) for e in (1, 4, 16, 64)]
        assert counts == sorted(counts, reverse=True)

    @pytest.mark.parametrize("family", DEFAULT_FAMILIES, ids=lambda f: f.kind)
    def test_all_default_families_partition(self, family):
        ys = _walk(11) + 100000  # positivity margin for log-domain families
        pieces = piecewise_partition(ys, family, 32)
        assert pieces[-1].end == len(ys)
        approx = native.evaluate(frag_rows(pieces, len(ys)), floor=False)
        assert np.max(np.abs(approx - ys)) <= 32 + 1e-6

    def test_constant_series_single_piece(self):
        ys = np.full(500, 42, dtype=np.int64)
        for fam in (Linear(), Radical()):
            assert len(piecewise_partition(ys, fam, 0)) == 1

    def test_exact_line_single_piece(self):
        ys = (7 * np.arange(1000) + 3).astype(np.int64)
        assert len(piecewise_partition(ys, Linear(), 0)) == 1

    def test_exact_sqrt_single_piece_radical(self):
        ys = np.round(100 * np.sqrt(np.arange(1, 800, dtype=np.float64))).astype(np.int64)
        pieces = piecewise_partition(ys, Radical(), 1)
        assert len(pieces) == 1

    def test_len_protocol(self):
        ys = _walk(0, n=50)
        p = piecewise_partition(ys, Linear(), 1000)[0]
        assert len(p) == p.end - p.start


class TestPLAKernel:
    """``PLA.compress`` partitions in the C kernel (Algorithm 1 in lossy mode
    with the single pair (Linear, eps)); its pieces must be the greedy
    reference's, which are optimal in count (O'Rourke)."""

    @staticmethod
    def check(ys, eps):
        got = [(p.start, p.end, p.params, p.delta) for p in PLA.compress(ys, eps).pieces]
        ref = [(p.start, p.end, p.params, p.delta) for p in piecewise_partition(ys, Linear(), eps)]
        assert got == ref

    @pytest.mark.parametrize("frac", [0.001, 0.005, 0.02, 0.1])
    @pytest.mark.parametrize("n", [1024, 4096])
    @pytest.mark.parametrize("name", DATASETS)
    def test_datasets(self, name, n, frac):
        ts = load(name, n=n)
        self.check(ts.ints, int(ts.value_range * frac))

    @given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=300), st.sampled_from([0, 0, 1, 50]))
    @settings(max_examples=60, deadline=None)
    def test_random_series_with_negatives(self, vals, eps):
        self.check(np.asarray(vals, dtype=np.int64), eps)
