"""General-purpose codecs + the 1000-value block-wise random-access wrapper."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.blockstore import BLOCK, BlockStore
from repro.baselines.gorilla import GorillaCodec
from repro.baselines.gp import GP_CODECS, GPCodec
from repro.tsdata import load


class TestGPCodecs:
    @pytest.mark.parametrize("name", GP_CODECS)
    def test_roundtrip(self, name):
        ts = load("IT", n=1000)
        c = GPCodec(name)
        blob = c.compress(ts.ints)
        out = c.decompress(blob, n_values=ts.n)
        assert np.array_equal(out, ts.ints)

    @pytest.mark.parametrize("name", GP_CODECS)
    @given(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=100))
    @settings(max_examples=15, deadline=None)
    def test_random_values(self, name, vals):
        arr = np.asarray(vals, dtype=np.int64)
        c = GPCodec(name)
        out = c.decompress(c.compress(arr), n_values=len(arr))
        assert np.array_equal(out, arr)

    @pytest.mark.parametrize("name", GP_CODECS)
    def test_short_payload_not_padded(self, name):
        """A 100-value payload read as 110 values raises or returns its own
        100 values, never 110."""
        vals = np.arange(100, dtype=np.int64) * 7919
        c = GPCodec(name)
        try:
            out = c.decompress(c.compress(vals), n_values=110)
        except (OSError, ValueError):
            return
        assert np.array_equal(out, vals)

    def test_xz_is_real_lzma(self):
        """Xz output must carry the .xz magic — the authentic format."""
        blob = GPCodec("Xz").compress(np.arange(100, dtype=np.int64))
        assert blob[:6] == b"\xfd7zXZ\x00"

    def test_strong_codecs_beat_fast_ones(self):
        ts = load("CT", n=4000)
        sizes = {n: len(GPCodec(n).compress(ts.ints)) for n in GP_CODECS}
        assert sizes["Xz"] < sizes["Lz4"]
        assert sizes["Zstd"] < sizes["Snappy"]


class TestBlockStore:
    @pytest.mark.parametrize("name", GP_CODECS)
    def test_roundtrip(self, name):
        ts = load("WD", n=2500)
        bs = BlockStore(GPCodec(name), ts.ints)
        assert np.array_equal(bs.decompress(), ts.ints)

    def test_block_count(self):
        ts = load("DP", n=2500)
        bs = BlockStore(GPCodec("Zstd"), ts.ints)
        assert len(bs.payloads) == (2500 + BLOCK - 1) // BLOCK

    def test_access_all_block_boundaries(self):
        ts = load("DU", n=2500)
        bs = BlockStore(GPCodec("Lz4"), ts.ints)
        for k in [0, 999, 1000, 1001, 1999, 2000, 2499]:
            assert bs.access(k) == ts.ints[k]

    def test_access_out_of_range(self):
        bs = BlockStore(GPCodec("Zstd"), np.arange(10, dtype=np.int64))
        with pytest.raises(IndexError):
            bs.access(10)

    def test_scan_spanning_blocks(self):
        ts = load("CT", n=3500)
        bs = BlockStore(GPCodec("Snappy"), ts.ints)
        for lo, hi in [(0, 3500), (999, 1001), (500, 2500), (3499, 3500), (7, 7)]:
            assert np.array_equal(bs.scan(lo, hi), ts.ints[lo:hi])

    def test_stream_codec_wrapping(self):
        """XOR stream codecs go through the same wrapper (Section IV-A2)."""
        ts = load("AP", n=2500)
        bits = ts.floats.view(np.uint64)
        bs = BlockStore(GorillaCodec(), bits)
        assert np.array_equal(bs.decompress(), bits)
        assert bs.access(1500) == bits[1500]

    def test_size_includes_pointers(self):
        ts = load("BM", n=2000)
        bs = BlockStore(GPCodec("Zstd"), ts.ints)
        assert bs.size_bytes >= sum(len(p) for p in bs.payloads) + 8 * len(bs.payloads)

    def test_custom_block_size(self):
        arr = np.arange(100, dtype=np.int64)
        bs = BlockStore(GPCodec("Zstd"), arr, block=16)
        assert len(bs.payloads) == 7
        assert np.array_equal(bs.decompress(), arr)
        assert bs.access(17) == 17
