"""Measurement harness: the codec table, losslessness verification, metrics."""
import hashlib
from functools import partial

import numpy as np
import pytest

from repro.baselines.blockstore import BlockStore
from repro.baselines.chimp import Chimp128Codec, ChimpCodec
from repro.baselines.gp import GP_CODECS
from repro.core.neats import NeaTS
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
        assert 0 < m["ratio"] < 120
        assert m["comp"] > 0
        assert m["dec"] > 0
        assert m["ra"] > 0
        assert m["dataset"] == "DP"

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


class TestOutOfRange:
    @pytest.mark.parametrize("name", CODECS)
    def test_reads_outside_the_series_raise(self, name):
        """``access`` and ``scan`` refuse positions outside ``[0, n)``
        rather than wrap around or read past the end."""
        ts = load("IT", n=2048)
        domain, build = CODECS[name]
        art = build(input_of(ts, domain))
        for k in (-1, ts.n):
            with pytest.raises(IndexError):
                art.access(k)
        if hasattr(art, "scan"):
            for lo, hi in ((-1, 1), (ts.n - 1, ts.n + 1)):
                with pytest.raises(IndexError):
                    art.scan(lo, hi)


class TestEmptySeries:
    #: the codecs that ``BlockStore`` reads: the nine stream codecs and ALP
    BLOCKWISE = [*GP_CODECS, "Gorilla", "Chimp", "Chimp128", "TSXor", "ALP"]

    @pytest.mark.parametrize("name", BLOCKWISE)
    def test_blockwise_roundtrips_empty(self, name):
        domain, build = CODECS[name]
        values = np.empty(0, dtype={"int": np.int64, "float": np.float64, "bits": np.uint64}[domain])
        art = build(values)
        assert isinstance(art, BlockStore)
        out = art.decompress()
        assert out.dtype == values.dtype and len(out) == 0


class TestFormatPins:
    """The baselines' and NeaTS's bits, pinned: a roundtrip passes whatever
    the format, so these hold the sizes and payloads that the formats
    produce."""

    SIZES = {
        "IT": {"Chimp": 25688, "Chimp128": 11336, "DAC": 8792, "LeCo": 5557, "ALP": 6192},
        "ECG": {"Chimp": 29128, "Chimp128": 15128, "DAC": 5941, "LeCo": 6215, "ALP": 5680},
        "BP": {"Chimp": 26008, "Chimp128": 26728, "DAC": 17568, "LeCo": 13123, "ALP": 13232},
    }
    #: SHA-256 of the payload of the first 1024 values' IEEE-754 bits
    CHIMP_SHA256 = {
        ("IT", "Chimp"): "3168128d4aeb5f860bfee3a95e72034b25d38c78885125e0a985b2780fa7080b",
        ("IT", "Chimp128"): "d328629dd1130802cf174b6740c4fff01fac44b8449654079c45934e9cdff880",
        ("ECG", "Chimp"): "72acad7f2a549e06c18e93ac547bdd1abc3a3523ce1874f32ce5ffbfb5e5c41c",
        ("ECG", "Chimp128"): "303a09353b1e24fe6e4939bd8b40b1f58b651b1ce1eb9385d113d913299a126d",
        ("BP", "Chimp"): "f307b3586ca13dd4ae504f8858644abd51b2b4e2de49fb428c16baa02d7d974b",
        ("BP", "Chimp128"): "d1e643fac652b141b632c8408b079a5dcfd22ed9853ae0a1a3535370e298c0de",
    }

    #: SHA-256 of the NeaTS payload of the first 1024 values, per variant
    NEATS_SHA256 = {
        ("IT", "neats"): "8244beb0b4ebe82ab2dfd2e362921874c38b6ee7df13374c54056f207823169b",
        ("IT", "leats"): "781a9c2401c7d931c0be3334cc1b4e3f8f9a24dac7799e3a0ee164c93172fd6d",
        ("IT", "sneats"): "4bb87a69cd6c64680b9558de8b6940369a0312bdcaba753d30e1c1f5051aab6b",
        ("ECG", "neats"): "1438bcd9b4e89e280805bd44f49416eb43b83f6b48dcb78a9a523a7994d38a44",
        ("ECG", "leats"): "6e2e5dc7c27f77a61495adc71a57d08947d7ad69e4492be649641f91520da32e",
        ("ECG", "sneats"): "1438bcd9b4e89e280805bd44f49416eb43b83f6b48dcb78a9a523a7994d38a44",
        ("DU", "neats"): "f164380b4c2e509ea0ac02cddfc756aa46c69227096529b25676827814d45561",
        ("DU", "leats"): "3fd935b99a8ad49d0b0e4fa5733692a80185967eb347ca3d749fa104186484e3",
        ("DU", "sneats"): "78be97dacad95b02623befc5f91e68fed0abbaeb09c7eba757f5b35633d2957c",
        ("BP", "neats"): "1f69ace1d0254bb45df64436126bd5d6e1d8181a064d9a106834f0295a24e0d6",
        ("BP", "leats"): "76c6a164825314913ed6dba861b91cf2c4ac584344259030fb6142bcdfd31aef",
        ("BP", "sneats"): "1f69ace1d0254bb45df64436126bd5d6e1d8181a064d9a106834f0295a24e0d6",
    }

    @pytest.mark.parametrize("ds", SIZES)
    def test_sizes(self, ds):
        ts = load(ds, n=4096)
        got = {name: CODECS[name][1](input_of(ts, CODECS[name][0])).size_bytes for name in self.SIZES[ds]}
        assert got == self.SIZES[ds]

    @pytest.mark.parametrize("ds,codec", CHIMP_SHA256)
    def test_chimp_payloads(self, ds, codec):
        bits = load(ds, n=4096).floats[:1024].view(np.uint64)
        stream = {"Chimp": ChimpCodec, "Chimp128": Chimp128Codec}[codec]()
        assert hashlib.sha256(stream.compress(bits)).hexdigest() == self.CHIMP_SHA256[ds, codec]

    @pytest.mark.parametrize("ds,variant", NEATS_SHA256)
    def test_neats_payloads(self, ds, variant):
        """An encoder and a decoder that drift together still round-trip;
        the payload's hash does not."""
        ys = load(ds, n=4096).ints[:1024]
        blob = NeaTS.compress(ys, variant=variant).to_bytes()
        assert hashlib.sha256(blob).hexdigest() == self.NEATS_SHA256[ds, variant]
