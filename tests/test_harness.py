"""Measurement harness: the codec table, losslessness verification, metrics."""
from functools import partial

import numpy as np
import pytest

from repro.baselines.blockstore import BlockStore
from repro.harness import ALL_LOSSLESS, CODECS, input_of, measure
from repro.tsdata import load


class TestAdapters:
    def test_all_thirteen_codecs_present(self):
        assert len(ALL_LOSSLESS) == 13  # 5 general + 8 special-purpose
        assert ALL_LOSSLESS[-1] == "NeaTS"

    @pytest.mark.parametrize("name", ALL_LOSSLESS)
    def test_adapter_builds(self, name):
        ts = load("CT", n=64)
        domain, build = CODECS[name]
        values = input_of(ts, domain)
        art = build(values)
        assert art.size_bytes > 0
        assert np.array_equal(art.decompress(), values)

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            measure("gzip2000", load("CT", n=64))

    def test_variant_adapters(self):
        assert {"LeaTS", "SNeaTS"} <= CODECS.keys()
        assert not {"LeaTS", "SNeaTS"} & set(ALL_LOSSLESS)

    @pytest.mark.parametrize("name", ["Gorilla", "Chimp", "Chimp128", "TSXor", "ALP"])
    def test_float_domain_codecs_get_bits(self, name):
        ts = load("CT", n=64)
        values = input_of(ts, CODECS[name][0])
        assert values.dtype in (np.uint64, np.float64)

    @pytest.mark.parametrize("name", ["Xz", "DAC", "LeCo", "NeaTS"])
    def test_int_domain_codecs_get_ints(self, name):
        ts = load("CT", n=64)
        assert input_of(ts, CODECS[name][0]).dtype == np.int64


class TestMeasure:
    @pytest.mark.parametrize("name", [*ALL_LOSSLESS, "LeaTS", "SNeaTS"])
    def test_measures_are_sane(self, name):
        ts = load("DP", n=1200)
        m = measure(name, ts, n_access=50)
        assert 0 < m.ratio_pct < 120
        assert m.compress_mb_s > 0
        assert m.decompress_mb_s > 0
        assert m.random_access_mb_s > 0
        assert m.dataset == "DP"

    def test_verification_catches_corruption(self, monkeypatch):
        """measure() must detect a codec that is not lossless."""
        ts = load("CT", n=600)

        class Broken:
            name = "Broken"
            domain = "int"

            def compress(self, values):
                return values[:-1].tobytes()

            def decompress(self, blob, n_values):
                return np.frombuffer(blob, dtype=np.int64)

        monkeypatch.setitem(CODECS, "Broken", ("int", partial(BlockStore, Broken())))
        with pytest.raises(AssertionError, match="not lossless"):
            measure("Broken", ts, n_access=5)
