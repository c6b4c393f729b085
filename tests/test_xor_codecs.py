"""Gorilla / Chimp / Chimp128 / TSXor: faithful-format roundtrips."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import tsxor
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


def _zero_bytes(x: int) -> tuple[int, int]:
    """(leading zero bytes, trailing zero bytes) of a 64-bit value."""
    if x == 0:
        return 8, 0
    b = x.to_bytes(8, "big")
    return len(b) - len(b.lstrip(b"\0")), len(b) - len(b.rstrip(b"\0"))


def _tsxor_scan(ints):
    """TSXor's reference per value by scanning a list of the last 127 values,
    most recent first: the first equal entry, else the first entry with the
    most leading plus trailing zero bytes in its XOR; -1 for value 0."""
    window, offsets = [], []
    for v in ints:
        if v in window:
            offsets.append(window.index(v))
        else:
            offsets.append(max(range(len(window)), key=lambda off: (sum(_zero_bytes(v ^ window[off])), -off),
                               default=-1))
        window.insert(0, v)
        del window[tsxor._WINDOW:]
    return offsets


def _tsxor_scan_compress(values):
    """The TSXor payload written from :func:`_tsxor_scan`'s references, one value at a time."""
    ints = np.asarray(values, dtype=np.uint64).tolist()
    out = bytearray(len(ints).to_bytes(8, "little"))
    for i, (v, off) in enumerate(zip(ints, _tsxor_scan(ints))):
        x = v ^ ints[i - 1 - off] if off >= 0 else None
        if x == 0:
            out.append(off)
            continue
        if x is not None:
            l, t = _zero_bytes(x)
            length = 8 - l - t
            if 2 + length < 9 and length > 0:
                out += bytes((128 + off, (l << 4) | length)) + x.to_bytes(8, "big")[l:l + length]
                continue
        out.append(127)
        out += v.to_bytes(8, "big")
    return bytes(out)


_BYTE_EDGES = [0, 1, 2**8 - 1, 2**8, 2**48 - 1, 2**48, 2**56 - 1, 2**56, 2**63, 2**64 - 1]


class TestTSXorReferences:
    """The numpy search and the payload it writes are those of a scan of the window."""

    @given(st.lists(st.integers(0, 2**64 - 1) | st.sampled_from(_BYTE_EDGES)
                    | st.integers(0, 3).map(lambda k: k << 40), max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_same_as_scan(self, vals):
        arr = np.asarray(vals, dtype=np.uint64)
        assert tsxor._references(arr)[0].tolist() == _tsxor_scan(vals)
        assert TSXorCodec().compress(arr) == _tsxor_scan_compress(arr)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_short(self, n):
        for vals in ([2**56 - 1, 2**56][:n], [5, 5][:n]):
            assert TSXorCodec().compress(np.asarray(vals, dtype=np.uint64)) == _tsxor_scan_compress(vals)

    def test_leading_zero_bytes_at_byte_boundaries(self):
        x = np.asarray(_BYTE_EDGES, dtype=np.uint64)
        assert tsxor._leading_zero_bytes(x).tolist() == [_zero_bytes(v)[0] for v in _BYTE_EDGES]

    @pytest.mark.parametrize("name", DATASETS)
    def test_dataset_payloads(self, name):
        ts = load(name, n=2000)
        for vals in (ts.floats.view(np.uint64), ts.ints.astype(np.int64).view(np.uint64)):
            block = vals[1000:2000]
            assert TSXorCodec().compress(block) == _tsxor_scan_compress(block)


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

    def test_chimp128_rejects_reference_before_first(self):
        """A forged offset that points before the first value raises,
        instead of reading a value from the end of the output."""
        vals = np.full(200, 10, dtype=np.uint64)
        blob = Chimp128Codec().compress(vals)
        words = np.frombuffer(blob, dtype=np.uint64, offset=16).copy()
        # value 1 is flag 00 (bits 64-65) and a 7-bit offset 0 (bits 66-72)
        assert (int(words[1]) & 0x1FF) == 0
        words[1] |= np.uint64(127 << 2)
        with pytest.raises(ValueError, match="before the first"):
            Chimp128Codec().decompress(blob[:16] + words.tobytes(), len(vals))

    def test_tsxor_rejects_malformed_payload(self):
        """A payload cut short or with bytes past its values, or whose first
        value refers back, raises instead of decoding to other values."""
        vals = np.asarray([1, 2, 3, 2**60 + 12345], dtype=np.uint64)
        blob = TSXorCodec().compress(vals)
        for bad in (blob[:-3], blob + b"\0", blob[:8] + b"\0" + blob[9:]):
            with pytest.raises(ValueError):
                TSXorCodec().decompress(bad, len(vals))

    @pytest.mark.parametrize("codec", [GorillaCodec, ChimpCodec, Chimp128Codec])
    def test_bit_stream_rejects_malformed_payload(self, codec):
        """A payload cut by one word, or whose header counts one value more
        than its bits hold, none at all or more values than bits, raises
        ``ValueError`` before sizing its output."""
        vals = np.arange(100, 300, dtype=np.uint64) * np.uint64(7)
        blob = codec().compress(vals)
        for bad in (blob[:-8], *((n).to_bytes(8, "little") + blob[8:]
                                 for n in (len(vals) + 1, 0, 2**40))):
            with pytest.raises(ValueError):
                codec().decompress(bad, len(vals))
