"""Gorilla / Chimp / Chimp128 / TSXor: faithful-format roundtrips."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.chimp import Chimp128Codec, ChimpCodec, _references
from repro.baselines.gorilla import GorillaCodec, _ctz64
from repro.baselines.tsxor import TSXorCodec
from repro.tsdata import DATASETS, load

CODECS = [GorillaCodec, ChimpCodec, Chimp128Codec, TSXorCodec]
IDS = [c().name for c in CODECS]


def _roundtrip(codec, vals):
    blob = codec.compress(vals)
    out = codec.decompress(blob, len(vals))
    assert np.array_equal(out, vals), codec.name
    return blob


class TestRoundtrips:
    @pytest.mark.parametrize("codec_cls", CODECS, ids=IDS)
    @pytest.mark.parametrize("name", DATASETS[:8])
    def test_dataset_bits(self, codec_cls, name):
        ts = load(name, n=700)
        _roundtrip(codec_cls(), ts.floats.view(np.uint64))

    @pytest.mark.parametrize("codec_cls", CODECS, ids=IDS)
    @given(st.lists(st.integers(0, 2**64 - 1), max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_random_uint64(self, codec_cls, vals):
        _roundtrip(codec_cls(), np.asarray(vals, dtype=np.uint64))

    @pytest.mark.parametrize("codec_cls", CODECS, ids=IDS)
    def test_empty(self, codec_cls):
        c = codec_cls()
        assert len(c.decompress(c.compress(np.empty(0, dtype=np.uint64)), 0)) == 0

    @pytest.mark.parametrize("codec_cls", CODECS, ids=IDS)
    def test_single(self, codec_cls):
        _roundtrip(codec_cls(), np.asarray([0xDEADBEEFCAFEBABE], dtype=np.uint64))

    @pytest.mark.parametrize("codec_cls", CODECS, ids=IDS)
    def test_constant_compresses_well(self, codec_cls):
        vals = np.full(1000, np.float64(3.25).view(np.uint64).item(), dtype=np.uint64)
        blob = _roundtrip(codec_cls(), vals)
        assert len(blob) < 8 * len(vals) / 4  # repeated values nearly free

    @pytest.mark.parametrize("codec_cls", CODECS, ids=IDS)
    def test_extremes(self, codec_cls):
        vals = np.asarray([0, 2**64 - 1, 0, 1, 2**63, 2**63 - 1], dtype=np.uint64)
        _roundtrip(codec_cls(), vals)

    @pytest.mark.parametrize("codec_cls", CODECS, ids=IDS)
    def test_alternating_worst_case(self, codec_cls):
        vals = np.tile(np.asarray([0, 2**64 - 1], dtype=np.uint64), 100)
        _roundtrip(codec_cls(), vals)


class TestChimpReferences:
    """The window search in numpy picks what a scan of the window picks: the
    most trailing zeros in the XOR, the earliest value on a tie."""

    @staticmethod
    def _scan(ints, window):
        offsets, xors, tzs = [1], [0], [-1]
        for i in range(1, len(ints)):
            best = max(range(max(0, i - window), i), key=lambda j: (_ctz64(ints[i] ^ ints[j]), -j))
            offsets.append(i - best)
            xors.append(ints[i] ^ ints[best])
            tzs.append(_ctz64(xors[-1]))
        return offsets, xors, tzs

    @pytest.mark.parametrize("window", [1, 3, 128])
    @given(st.lists(st.integers(0, 2**64 - 1) | st.sampled_from([0, 1, 2**63, 2**40, 3 << 40]),
                    min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_same_as_scan(self, window, vals):
        arr = np.asarray(vals, dtype=np.uint64)
        got = [a.tolist()[1:] for a in _references(arr, window)]  # value 0 has no reference
        assert got == [a[1:] for a in self._scan(vals, window)]


class TestCompressionBehaviour:
    def test_chimp_beats_gorilla_on_floats(self):
        """The Chimp paper's headline claim, visible on smooth data."""
        ts = load("AP", n=2000)
        bits = ts.floats.view(np.uint64)
        g = len(GorillaCodec().compress(bits))
        c = len(ChimpCodec().compress(bits))
        assert c <= g * 1.05

    def test_chimp128_beats_chimp_on_periodic(self):
        """The 128-window reference captures the ECG's periodicity."""
        ts = load("ECG", n=2000)
        bits = ts.floats.view(np.uint64)
        c = len(ChimpCodec().compress(bits))
        c128 = len(Chimp128Codec().compress(bits))
        assert c128 < c

    def test_tsxor_exact_match_path(self):
        """Values repeating within the 127-window use the 1-byte reference."""
        vals = np.tile(np.arange(50, dtype=np.uint64) * 12345, 10)
        blob = TSXorCodec().compress(vals)
        # after the first 50 literals, every value costs 1 byte
        assert len(blob) < 8 + 50 * 9 + 450 * 2
        assert np.array_equal(TSXorCodec().decompress(blob, len(vals)), vals)
