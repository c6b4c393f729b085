"""Lossy compressors: NeaTS-L, PLA, AA — error bounds and size ordering."""
import numpy as np
import pytest

from repro.baselines.aa import AA
from repro.baselines.pla import PLA
from repro.core.lossy import NeaTSLossy, mape
from repro.core.models import Linear
from repro.core.neats import NeaTS
from repro.core.partition import OutOfDomainError
from repro.tsdata import DATASETS, load

N_TEST = 1536


def _eps_for(ts, pct=0.5):
    return max(1, int(ts.value_range * pct / 100))


@pytest.fixture(scope="module")
def lossy_all():
    out = {}
    for name in DATASETS:
        ts = load(name, n=N_TEST)
        eps = _eps_for(ts)
        out[name] = (
            ts, eps,
            NeaTSLossy.compress(ts.ints, eps),
            PLA.compress(ts.ints, eps),
            AA.compress(ts.ints, eps),
        )
    return out


class TestErrorBounds:
    @pytest.mark.parametrize("name", DATASETS)
    def test_neats_l_bound(self, lossy_all, name):
        ts, eps, nl, _, _ = lossy_all[name]
        assert nl.max_error(ts.ints) <= eps + 1e-6

    @pytest.mark.parametrize("name", DATASETS)
    def test_pla_bound(self, lossy_all, name):
        ts, eps, _, pl, _ = lossy_all[name]
        assert pl.max_error(ts.ints) <= eps + 1e-6

    @pytest.mark.parametrize("name", DATASETS)
    def test_aa_bound(self, lossy_all, name):
        ts, eps, _, _, aa = lossy_all[name]
        assert aa.max_error(ts.ints) <= eps + 1e-6


class TestSizeOrdering:
    @pytest.mark.parametrize("name", DATASETS)
    def test_neats_l_not_worse_than_pla(self, lossy_all, name):
        """Table II: NeaTS-L improves on PLA on every dataset. The DAG's
        edge set includes every linear edge PLA can use, so the optimal
        partition cannot be meaningfully worse (small slack for the uniform
        per-piece accounting of 2- vs 3-parameter functions)."""
        _, _, nl, pl, _ = lossy_all[name]
        assert nl.size_bytes <= pl.size_bytes * 1.02

    @pytest.mark.parametrize("name", DATASETS)
    def test_aa_not_better_than_neats_l(self, lossy_all, name):
        _, _, nl, _, aa = lossy_all[name]
        assert nl.size_bytes <= aa.size_bytes * 1.02

    def test_linear_only_neats_l_matches_pla_closely(self):
        ts = load("CT", n=N_TEST)
        eps = _eps_for(ts)
        nl = NeaTSLossy.compress(ts.ints, eps, families=[Linear()])
        pl = PLA.compress(ts.ints, eps)
        # optimal partition vs greedy, same family: never more pieces
        assert len(nl.pieces) <= len(pl.pieces)


class TestApproximationQuality:
    @pytest.mark.parametrize("name", DATASETS[:8])
    def test_aa_zero_error_at_anchors(self, lossy_all, name):
        """AA's functions pass through the first point of each fragment."""
        ts, _, _, _, aa = lossy_all[name]
        approx = aa.approximate()
        for p in aa.pieces:
            assert approx[p.start] == pytest.approx(float(ts.ints[p.start]), abs=1e-6)

    def test_mape_zero_for_perfect(self):
        a = np.asarray([1.0, 2.0, 3.0])
        assert mape(a, a) == 0.0

    def test_mape_skips_zeros(self):
        assert mape(np.asarray([0.0, 2.0]), np.asarray([5.0, 3.0])) == pytest.approx(50.0)

    def test_mape_all_zero_actual(self):
        assert mape(np.zeros(3), np.ones(3)) == 0.0


class TestSizeModel:
    def test_eps_growth_shrinks_neats_l(self):
        ts = load("WD", n=N_TEST)
        sizes = [NeaTSLossy.compress(ts.ints, e).size_bytes
                 for e in (_eps_for(ts, 0.1), _eps_for(ts, 1), _eps_for(ts, 10))]
        assert sizes[0] >= sizes[1] >= sizes[2]

    def test_pla_size_has_no_kind_tag(self):
        ts = load("CT", n=N_TEST)
        pl = PLA.compress(ts.ints, _eps_for(ts))
        # a 16-byte header; per piece, two float64s and a 32-bit start entry
        assert pl.size_bytes == 16 + (len(pl.pieces) * (2 * 64 + 32) + 7) // 8

    def test_pieces_cover(self):
        ts = load("DU", n=N_TEST)
        nl = NeaTSLossy.compress(ts.ints, _eps_for(ts))
        assert nl.pieces[0].start == 0 and nl.pieces[-1].end == ts.n
        for a, b in zip(nl.pieces, nl.pieces[1:]):
            assert a.end == b.start


class TestDomain:
    @pytest.mark.parametrize("ys", [
        [-2**62, 0, 2**62, 2**62 + 5, 2**63 - 10],  # the shifted series leaves int64
        [-2**63, -2**63 + 5, -2**63 + 1],  # the shift itself does
    ])
    def test_shift_past_int64_is_out_of_domain(self, ys):
        """Lossless and lossy NeaTS reject a series whose positivity shift
        leaves int64 alike, instead of wrapping into a wrong approximation."""
        ys = np.array(ys, dtype=np.int64)
        with pytest.raises(OutOfDomainError, match="shift"):
            NeaTS.compress(ys)
        with pytest.raises(OutOfDomainError, match="shift"):
            NeaTSLossy.compress(ys, 4)

    @pytest.mark.parametrize("values", [[1.5, 2.7, 3.9, 10.2], np.asarray([1, 2**64 - 1], dtype=np.uint64)],
                             ids=["float", "uint64"])
    def test_not_int64_is_out_of_domain(self, values):
        """NeaTS-L, PLA and AA refuse a series that int64 does not hold
        exactly, instead of approximating its truncated or wrapped values."""
        for cls in (NeaTSLossy, PLA, AA):
            with pytest.raises(OutOfDomainError, match="int64"):
                cls.compress(values, 4)

    def test_no_family_is_out_of_domain(self):
        with pytest.raises(OutOfDomainError, match="pair"):
            NeaTSLossy.compress(np.arange(100, dtype=np.int64), 4, families=[])
