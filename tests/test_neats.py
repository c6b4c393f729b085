"""NeaTS end-to-end: lossless roundtrip, random access, scan, serialisation."""
import gc
import os
import struct
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import native
from repro.core.models import DEFAULT_FAMILIES, FAMILIES, Linear
from repro.core.neats import CorruptPayloadError, NeaTS
from repro.core.partition import OutOfDomainError, default_epsilons, optimal_partition, positivity_shift
from repro.tsdata import DATASETS, load
from tests import encoder_reference
from tests.wavelet_reference import WaveletTree

N_TEST = 1536


def _rows(c: NeaTS) -> np.ndarray:
    """The reader's fragment rows, without the sentinel."""
    return np.frombuffer(c._reader, dtype=native.FRAG)[:c.m]


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
        """Seed 1237241459, DU block 0: np.exp and libm exp differ in the
        last bit here, and when access() and the encoder used different ones
        floor() landed one off (access(795) gave 1227 for 1228)."""
        ys = load("DU", n=16384, seed=1237241459).ints[:1024]
        c = NeaTS.compress(ys)
        out = c.decompress()
        assert np.array_equal(out, ys)
        assert [c.access(k) for k in range(len(ys))] == out.tolist()

    @pytest.mark.parametrize("name", DATASETS[:6])
    def test_succinct_access_agrees(self, compressed, name):
        """access_succinct (the same C path as access) answers from the
        stored S/B/O/K structures."""
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


def _section_starts(blob: bytes) -> dict[str, int]:
    """Byte offset of each section of a payload (layout of ``to_bytes``)."""
    starts, off = {}, 25  # magic, n, shift, m, has_bv
    for section in "BDSOK":
        starts[section] = off
        if section in "SO":  # Elias-Fano: (n, universe, l, n_low, n_up) + words
            n_low, n_up = struct.unpack_from("<qq", blob, off + 20)
            off += 36 + 8 * (n_low + n_up)
        else:  # packed: (count, width, n_words) + words
            off += 16 + 8 * struct.unpack_from("<q", blob, off + 8)[0]
    starts["C"] = off
    (cbits,) = struct.unpack_from("<q", blob, off)
    starts["P"] = off + 8 + 8 * max(1, (cbits + 63) // 64)
    return starts


def _param_sections(blob: bytes) -> dict[int, np.ndarray]:
    """P_f of a payload, per kind id."""
    off, out = _section_starts(blob)["P"], {}
    while (kind_id := struct.unpack_from("<i", blob, off)[0]) != -1:
        count = struct.unpack_from("<i", blob, off + 4)[0]
        width = FAMILIES[kind_id].n_params
        out[kind_id] = np.frombuffer(blob, np.float64, count * width, off + 8).reshape(count, width)
        off += 8 + 8 * count * width
    return out


class TestViewAddressing:
    @pytest.mark.parametrize("name", DATASETS[:6])
    def test_params_follow_rank_f(self, compressed, name):
        """Fragment i's row holds P_f[K.rank_f(i + 1) - 1] (Algorithm 3),
        with rank_f from a wavelet tree over K."""
        _, c = compressed[name]
        rows = _rows(c)
        kinds = rows["kind"].tolist()
        wt = WaveletTree(kinds, len(FAMILIES))
        params = _param_sections(c.to_bytes())
        for i, (k, row) in enumerate(zip(kinds, rows["p"])):
            want = params[k][wt.rank(k, i + 1) - 1]
            assert row[:len(want)].tobytes() == want.tobytes()


class TestVariants:
    def test_leats_is_linear_only(self):
        ts = load("IT", n=N_TEST)
        c = NeaTS.compress(ts.ints, variant="leats")
        assert np.array_equal(c.decompress(), ts.ints)
        assert set(_rows(c)["kind"].tolist()) == {0}  # kind id 0 == linear

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
        """The constant-time ``S`` variant is not stored: the header byte
        that would flag it is always 0, and a payload that sets it is
        refused."""
        ts = load("CT", n=N_TEST)
        c = NeaTS.compress(ts.ints, variant="sneats")
        blob = bytearray(c.to_bytes())
        assert blob[24] == 0  # after magic, n, shift and m
        rng = np.random.default_rng(3)
        for k in rng.integers(0, ts.n, 40):
            assert c.access_succinct(int(k)) == ts.ints[k]
        blob[24] = 1
        with pytest.raises(CorruptPayloadError):
            NeaTS.from_bytes(bytes(blob))


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


def _check_lossless(c, ys):
    """Every read path of ``c`` returns ``ys``."""
    n = len(ys)
    assert c.n == n
    assert np.array_equal(c.decompress(), ys)
    assert [c.access(k) for k in range(n)] == ys.tolist()
    assert np.array_equal(c.access_many(np.arange(n)[::-1]), ys[::-1])
    for lo, hi in [(0, n), (n // 3, n // 3 + 10), (n - 1, n), (n // 2, n // 2)]:
        assert np.array_equal(c.scan(lo, min(hi, n)), ys[lo:min(hi, n)])


class TestRegressions:
    def test_seed43_du_block2(self):
        """Where numpy's exp and libm's exp disagree: the encoder's
        corrections and the decoder's predictions come from one evaluator."""
        ys = load("DU", n=16384, seed=43).ints[2048:3072]
        _check_lossless(NeaTS.compress(ys), ys)

    def test_zero_width_field_at_word_boundary(self):
        """The correction stream fills whole words and ends in a fragment of
        width 0: packing raised IndexError there."""
        ys = load("LON", n=65536, seed=7).ints[52224:53248]
        c = NeaTS.compress(ys)
        _check_lossless(c, ys)
        _check_lossless(NeaTS.from_bytes(c.to_bytes()), ys)

    def test_shift_past_int64_is_out_of_domain(self):
        with pytest.raises(OutOfDomainError, match="shift"):
            NeaTS.compress(np.asarray([-(2**62) - 5, 2**62], dtype=np.int64))

    @pytest.mark.parametrize("values", [[1.5, 2.7, 3.9, 10.2], np.asarray([1, 2**64 - 1], dtype=np.uint64)],
                             ids=["float", "uint64"])
    def test_not_int64_is_out_of_domain(self, values):
        """A series that int64 does not hold exactly is refused before the
        cast, not truncated or wrapped into a payload of other values."""
        with pytest.raises(OutOfDomainError, match="int64"):
            NeaTS.compress(values)

    @pytest.mark.parametrize("kw", [{"families": []}, {"epsilons": []}], ids=["families", "epsilons"])
    @pytest.mark.parametrize("variant", ["neats", "sneats"])
    def test_no_pair_is_out_of_domain(self, kw, variant):
        with pytest.raises(OutOfDomainError, match="pair"):
            NeaTS.compress(np.arange(1000, dtype=np.int64), variant=variant, **kw)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="bogus"):
            NeaTS.compress([1, 2, 3], variant="bogus")

    def test_access_many_out_of_range(self):
        c = NeaTS.compress(np.asarray([1, 2, 3], dtype=np.int64))
        assert c.access_many([]).tolist() == []
        for bad in ([0, 3], [-1]):
            with pytest.raises(IndexError):
                c.access_many(bad)


@st.composite
def _series(draw):
    """1..600 int64 values: walks, curves, plateaus and noise of scale up to
    2^40 at offsets up to +-2^59.  (A series whose positivity shift takes it
    past int64 is rejected up front; see TestRegressions.)"""
    n = draw(st.integers(1, 600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 2 ** draw(st.integers(0, 40))
    offset = draw(st.sampled_from([0, 1, -1000, 2**40, -(2**40), 2**59, -(2**59)]))
    x = np.arange(1, n + 1, dtype=np.float64)
    shape = draw(st.sampled_from(["walk", "exp", "quadratic", "sqrt", "plateaus", "noise"]))
    if shape == "walk":
        base = np.cumsum(rng.integers(-scale, scale + 1, n))
    elif shape == "exp":
        base = np.round(scale * np.exp(np.minimum(x / rng.uniform(20, 400), 20.0)))
    elif shape == "quadratic":
        base = np.round(scale * (x - n / 2) ** 2 / n)
    elif shape == "sqrt":
        base = np.round(scale * np.sqrt(x))
    elif shape == "plateaus":
        base = np.repeat(rng.integers(-scale, scale + 1, n // 50 + 1), 50)[:n]
    else:
        base = rng.integers(-scale, scale + 1, n)
    return np.clip(base, -(2**59), 2**59).astype(np.int64) + offset


_FAMILY_CHOICES = [DEFAULT_FAMILIES] + [[f] for f in FAMILIES]


class TestLosslessProperty:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ys=_series(), families=st.sampled_from(_FAMILY_CHOICES),
           variant=st.sampled_from(["neats", "leats", "sneats"]))
    def test_every_read_path_returns_the_input(self, ys, families, variant):
        c = NeaTS.compress(ys, families=families, variant=variant)
        _check_lossless(c, ys)
        c2 = NeaTS.from_bytes(c.to_bytes())
        assert c2.to_bytes() == c.to_bytes()
        _check_lossless(c2, ys)


class TestFragmentRuns:
    """``scan`` decodes fragment by fragment, one loop per function kind:
    a range read equals the point reads and the full decode wherever it
    starts and ends."""

    @pytest.mark.parametrize("families", _FAMILY_CHOICES,
                             ids=lambda fs: "default" if len(fs) > 1 else fs[0].kind)
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ys=_series(), data=st.data())
    def test_scan_equals_access_and_decompress(self, families, ys, data):
        c = NeaTS.compress(ys, families=families)
        full = c.decompress()
        assert np.array_equal(full, ys)
        n = c.n
        starts = _rows(c)["start"].tolist() + [n]
        ranges = [(0, n), (0, 0), (n, n), (n - 1, n)]
        for s in starts[1:-1]:  # across each fragment boundary, and up to it
            ranges += [(s - 1, s + 1), (s, s + 1), (s - 1, s), (s, s)]
        for _ in range(3):  # from inside fragment i to inside fragment j >= i
            i = data.draw(st.integers(0, len(starts) - 2))
            j = data.draw(st.integers(i, len(starts) - 2))
            lo = data.draw(st.integers(starts[i], starts[i + 1] - 1))
            ranges.append((lo, data.draw(st.integers(max(lo, starts[j]), starts[j + 1]))))
        for lo, hi in ranges:
            got = c.scan(lo, hi)
            assert got.tolist() == [c.access(k) for k in range(lo, hi)] == full[lo:hi].tolist(), (lo, hi)


class TestEncoderReference:
    """The C writer ``neats_encode`` lays out the bytes of the numpy
    serialiser of ``tests/encoder_reference.py``."""

    @staticmethod
    def check(ys, families):
        eps = default_epsilons(ys)
        shift = positivity_shift(ys, families, max(eps))
        pieces = optimal_partition(ys + shift, families, list(eps))
        got = NeaTS(ys + shift, shift=shift, pieces=pieces).to_bytes()
        assert got == encoder_reference.payload(ys + shift, shift, pieces)

    @pytest.mark.parametrize("name", DATASETS)
    def test_datasets(self, name):
        self.check(load(name, n=1024, seed=3).ints, list(DEFAULT_FAMILIES))

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ys=_series(), families=st.sampled_from(_FAMILY_CHOICES))
    def test_random_series(self, ys, families):
        self.check(ys, list(families))


def _payloads():
    out = []
    for name, n, seed, lo in [("DU", 16384, 43, 2048), ("IT", 2048, 7, 0), ("ECG", 2048, 7, 512)]:
        ys = load(name, n=n, seed=seed).ints[lo:lo + 600]
        out.append(NeaTS.compress(ys, variant="sneats").to_bytes())
    out.append(NeaTS.compress(np.asarray([5], dtype=np.int64)).to_bytes())
    return out


class TestCorruptPayload:
    @pytest.mark.parametrize("which", range(4))
    def test_every_truncation_raises(self, which):
        blob = _payloads()[which]
        for cut in range(len(blob)):
            with pytest.raises(CorruptPayloadError):
                NeaTS.from_bytes(blob[:cut])

    def test_trailing_bytes_raise(self):
        blob = _payloads()[1]
        with pytest.raises(CorruptPayloadError):
            NeaTS.from_bytes(blob + b"\0")

    @pytest.mark.parametrize("magic", [b"NTS1", b"XXXX", b"nts2"])
    def test_wrong_magic(self, magic):
        blob = _payloads()[1]
        with pytest.raises(CorruptPayloadError, match="magic"):
            NeaTS.from_bytes(magic + blob[4:])

    @pytest.mark.parametrize("m", [0, -1, 10**6, 2**31 - 1])
    def test_fragment_count_out_of_range(self, m):
        blob = bytearray(_payloads()[1])
        blob[20:24] = np.int32(m).tobytes()  # m follows magic, n and shift
        with pytest.raises(CorruptPayloadError):
            NeaTS.from_bytes(bytes(blob))

    def test_m_greater_than_n(self):
        blob = bytearray(_payloads()[3])  # n = 1, m = 1
        blob[4:12] = np.int64(0).tobytes()
        with pytest.raises(CorruptPayloadError, match="count"):
            NeaTS.from_bytes(bytes(blob))

    def test_kind_id_out_of_range(self):
        c = NeaTS.compress(np.arange(100, dtype=np.int64), variant="leats")
        blob = bytearray(c.to_bytes())
        kind_at = _section_starts(bytes(blob))["P"]  # the one P section's kind id
        assert blob[kind_at:kind_at + 4] == np.int32(0).tobytes()
        blob[kind_at:kind_at + 4] = np.int32(8).tobytes()
        with pytest.raises(CorruptPayloadError, match="kind"):
            NeaTS.from_bytes(bytes(blob))

    def test_parameter_count_short(self):
        c = NeaTS.compress(np.arange(100, dtype=np.int64), variant="leats")
        blob = bytearray(c.to_bytes())
        count_at = _section_starts(bytes(blob))["P"] + 4
        blob[count_at:count_at + 4] = np.int32(c.m - 1).tobytes()
        with pytest.raises(CorruptPayloadError, match="short"):  # one row fewer, too
            NeaTS.from_bytes(bytes(blob[:len(blob) - 20]) + bytes(blob[-4:]))

    def test_elias_fano_set_bits_short_of_count(self):
        """Clearing one set bit of S's upper bits leaves m - 1 values."""
        ys = load("IT", n=2048, seed=7).ints
        c = NeaTS.compress(ys, variant="leats")
        assert c.m > 1
        blob = bytearray(c.to_bytes())
        off = _section_starts(bytes(blob))["S"]
        count, _, _, n_low = struct.unpack_from("<qqiq", blob, off)
        assert count == c.m
        up = off + 36 + 8 * n_low
        word = int.from_bytes(blob[up:up + 8], "little")
        blob[up:up + 8] = (word & (word - 1)).to_bytes(8, "little")  # drop the lowest set bit
        with pytest.raises(CorruptPayloadError, match="Elias-Fano"):
            NeaTS.from_bytes(bytes(blob))


    def test_correction_bit_count_near_int64_max(self):
        """|C| = 2^63 - 1 passes every check before C's word count (n = 2^63 - 1,
        one fragment of width 1, O = [0, 2^63 - 1] in 63 low bits); the
        count must overrun the buffer, not wrap."""
        top = 2**63 - 1

        def packed(value):  # one cell of width 1
            return struct.pack("<iiqQ", 1, 1, 1, value)

        blob = b"".join([
            struct.pack("<4sqqib", b"NTS2", top, 0, 1, 0),
            packed(1),  # B
            packed(0),  # D
            struct.pack("<qqiqqQ", 1, 1, 0, 0, 1, 0b1),  # S = [0]
            struct.pack("<qqiqqQQQ", 2, top, 63, 2, 1, 1 << 63, (1 << 62) - 1, 0b11),  # O
            packed(0),  # K
        ])
        with pytest.raises(CorruptPayloadError, match="contradict"):  # reaches |C|
            NeaTS.from_bytes(blob + struct.pack("<q", top - 1))
        with pytest.raises(CorruptPayloadError, match="overruns"):
            NeaTS.from_bytes(blob + struct.pack("<q", top))


class TestReaderContract:
    """The arguments of the read path, as ``native.library().Reader``
    checks them: the exceptions of the pure-Python checks they replace."""

    @pytest.fixture(scope="class")
    def block(self):
        ys = load("IT", n=1024, seed=5).ints
        return NeaTS.from_bytes(NeaTS.compress(ys).to_bytes()), ys

    def test_access_takes_numpy_integers(self, block):
        c, ys = block
        for k in (np.int64(0), np.int32(17), np.uint16(1023), np.int64(511)):
            assert c.access(k) == ys[int(k)]
            assert c.access_succinct(k) == ys[int(k)]

    @pytest.mark.parametrize("k", [-1, 1024, 2**63 - 1, 2**63, 2**70, -(2**70), np.int64(-1), np.int64(1024)])
    def test_access_out_of_range(self, block, k):
        c, _ = block
        with pytest.raises(IndexError):
            c.access(k)
        with pytest.raises(IndexError):
            c.access_succinct(k)

    @pytest.mark.parametrize("k", [1.0, "3", None])
    def test_access_of_a_non_integer(self, block, k):
        c, _ = block
        with pytest.raises(TypeError):
            c.access(k)

    @pytest.mark.parametrize("lo, hi", [(5, 4), (1024, 1023), (0, 1025), (1000, 2**70), (-1, 3), (-(2**70), 0)])
    def test_scan_out_of_range(self, block, lo, hi):
        c, _ = block
        with pytest.raises(IndexError):
            c.scan(lo, hi)

    def test_scan_takes_numpy_integers(self, block):
        c, ys = block
        assert np.array_equal(c.scan(np.int64(100), np.int32(110)), ys[100:110])
        assert c.scan(1024, 1024).tolist() == []

    @pytest.mark.parametrize("ks", [[0, 1024], [-1], [2**62], np.asarray([3, 1024], dtype=np.int32)])
    def test_access_many_out_of_range(self, block, ks):
        c, _ = block
        with pytest.raises(IndexError):
            c.access_many(ks)

    def test_access_many_of_nothing(self, block):
        c, _ = block
        out = c.access_many(np.empty(0, dtype=np.int64))
        assert out.dtype == np.int64 and out.shape == (0,)

    def test_access_many_of_any_integer_array(self, block):
        c, ys = block
        ks = np.arange(0, 1024, 7)
        for keys in (ks.astype(np.int32), ks.astype(np.uint16), ks[::-1].copy()[::-1], ks.tolist()):
            assert np.array_equal(c.access_many(keys), ys[np.asarray(keys)])

    def test_reader_refuses_other_buffers(self, block):
        """The type checks what the methods above never pass it."""
        reader = block[0]._reader
        with pytest.raises(TypeError):
            reader.scan(0, np.empty(4, dtype=np.float64))
        with pytest.raises(TypeError):
            reader.access_many(np.zeros(4, dtype=np.int64), np.empty(4, dtype=np.int32))
        with pytest.raises(ValueError):
            reader.access_many(np.zeros(4, dtype=np.int64), np.empty(3, dtype=np.int64))
        with pytest.raises(ValueError, match="contiguous"):
            reader.scan(0, np.empty(4, dtype=np.int64)[::2])
        with pytest.raises(BufferError):
            reader.scan(0, np.empty(4, dtype=np.int64).tobytes())  # read-only


class TestReaderLifetime:
    def test_decodes_after_the_source_buffer_is_gone(self):
        ys = load("DU", n=2048, seed=11).ints
        source = bytearray(NeaTS.compress(ys).to_bytes())
        c = NeaTS.from_bytes(source)
        source[:] = bytes(len(source))
        del source
        gc.collect()
        _check_lossless(c, ys)

    def test_reader_outlives_its_neats(self):
        ys = load("ECG", n=1024, seed=11).ints
        reader = NeaTS.compress(ys)._reader
        gc.collect()
        out = np.empty(10, dtype=np.int64)
        reader.scan(100, out)
        assert out.tolist() == ys[100:110].tolist()
        assert reader.access(1023) == ys[1023]

    def test_no_growth_over_many_cycles(self):
        """from_bytes -> access -> scan, 10 000 times, keeps no memory and
        no reference to the payload."""
        blob = NeaTS.compress(load("BP", n=1024, seed=11).ints).to_bytes()
        source = bytearray(blob)  # a fresh bytes object per cycle

        def cycles(count):
            for i in range(count):
                c = NeaTS.from_bytes(source if i % 2 else blob)
                c.access(i % c.n)
                c.scan(i % 1000, i % 1000 + 10)
                c.access_many(np.arange(i % 64))

        cycles(200)
        refs = sys.getrefcount(blob)
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            cycles(10_000)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 64 * 1024  # a leaked payload or reader per cycle is >= 10 MB
        assert sys.getrefcount(blob) == refs


class TestReaderRows:
    """The reader owns its fragment rows, and ``NeaTS.access`` is its
    method."""

    @pytest.fixture(scope="class")
    def block(self):
        ys = load("IT", n=1024, seed=5).ints
        return NeaTS.from_bytes(NeaTS.compress(ys).to_bytes()), ys

    def test_access_is_the_readers_method(self, block):
        c, _ = block
        assert c.access == c.access_succinct == c._reader.access

    def test_an_override_on_the_class_sees_every_call(self, block, monkeypatch):
        calls = []

        def counted(self, k):
            calls.append(k)
            return self._reader.access(k)

        monkeypatch.setattr(NeaTS, "access", counted)
        monkeypatch.setattr(NeaTS, "access_succinct", counted)
        c, ys = NeaTS.from_bytes(block[0].to_bytes()), block[1]
        assert [c.access(3), c.access_succinct(4)] == ys[3:5].tolist()
        assert calls == [3, 4]

    def test_reader_rows_are_a_read_only_buffer(self, block):
        """The reader sizes its rows from the payload's header: one per
        fragment and the sentinel, whose start is n."""
        c, _ = block
        rows = np.frombuffer(c._reader, dtype=native.FRAG)
        assert len(rows) == c.m + 1 and rows["start"][-1] == c.n
        assert memoryview(c._reader).readonly
        with pytest.raises(TypeError):
            native.library().Reader(c.to_bytes(), np.empty(c.m + 1, dtype=native.FRAG))


_FUZZ = textwrap.dedent("""
    import sys
    import numpy as np
    from repro.core.neats import CorruptPayloadError, NeaTS
    from repro.tsdata import load

    rng = np.random.default_rng(int(sys.argv[1]))
    blobs = [NeaTS.compress(load(name, n=1024, seed=9).ints).to_bytes() for name in ("IT", "DU", "ECG", "BP")]
    blobs.append(NeaTS.compress(np.asarray([7, -3], dtype=np.int64)).to_bytes())
    blobs.append(NeaTS.compress(np.full(900, 5, dtype=np.int64)).to_bytes())  # corrections 0 bits wide
    refused = decoded = 0
    for trial in range(int(sys.argv[2])):
        blob = bytearray(blobs[trial % len(blobs)])
        how = trial % 3
        if how == 0:  # flip 1-3 bits
            for bit in rng.integers(0, 8 * len(blob), rng.integers(1, 4)):
                blob[bit // 8] ^= 1 << (bit % 8)
        elif how == 1:  # truncate, then maybe flip a bit
            blob = blob[:rng.integers(0, len(blob))]
            if blob and rng.random() < 0.5:
                blob[rng.integers(0, len(blob))] ^= 1 << rng.integers(0, 8)
        else:  # overwrite 1-4 bytes
            for at in rng.integers(0, len(blob), rng.integers(1, 5)):
                blob[at] = rng.integers(0, 256)
        try:
            c = NeaTS.from_bytes(blob)
        except CorruptPayloadError:
            refused += 1
            continue
        decoded += 1
        n = c.n
        ks = np.asarray([0, n // 3, n // 2, n - 1], dtype=np.int64)
        [c.access(int(k)) for k in ks]
        c.access_many(ks)
        c.scan(max(0, n - 10), n)
        c.scan(0, min(n, 10))
        # no section bounds n when the last fragment's corrections are 0 bits
        # wide, so a flipped n can parse: decode whole only what fits in memory
        if n <= 4096:
            c.decompress()
    print(refused, decoded)
""")


def test_corrupt_payloads_never_crash():
    """Flipped, truncated and overwritten payloads raise CorruptPayloadError
    or decode to some value; none crashes the process (so the loop runs in
    a child process, where a segfault fails the test instead of pytest)."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    trials = 2000
    proc = subprocess.run([sys.executable, "-c", _FUZZ, "20261019", str(trials)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    refused, decoded = map(int, proc.stdout.split())
    assert refused + decoded == trials
    assert refused > 0 and decoded > 0


_AVX512 = ("AVX512F", "AVX512CD", "AVX512_SKX", "AVX512_CLX", "AVX512_CNL", "AVX512_ICL")


def _host_has_avx512f() -> bool:
    try:
        with open("/proc/cpuinfo") as f:
            return " avx512f" in f.read()
    except OSError:
        return False


@pytest.mark.skipif(not _host_has_avx512f(), reason="the host has no AVX512F to switch off")
class TestCrossDispatch:
    def test_decode_without_avx512_matches(self, tmp_path):
        """A payload decodes to the same values in a process whose numpy
        dispatches without AVX512 (where np.exp/log/pow round differently)."""
        blocks = [load("DU", n=16384, seed=43).ints[2048:3072],
                  load("DU", n=16384, seed=1237241459).ints[:1024]]
        paths = [str(tmp_path / f"{i}.bin") for i in range(len(blocks))]
        for path, ys in zip(paths, blocks):
            with open(path, "wb") as f:
                f.write(NeaTS.compress(ys).to_bytes())
        code = (
            "import sys, numpy as np; from repro.core.neats import NeaTS\n"
            "for path in sys.argv[1:]:\n"
            "    c = NeaTS.from_bytes(open(path, 'rb').read())\n"
            "    ks = np.arange(c.n)\n"
            "    np.save(path + '.npy', [c.decompress(), [c.access(int(k)) for k in ks], c.access_many(ks)])\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
               "NPY_DISABLE_CPU_FEATURES": " ".join(_AVX512)}
        subprocess.run([sys.executable, "-c", code, *paths], env=env, check=True, timeout=120)
        for path, ys in zip(paths, blocks):
            got = np.load(path + ".npy")
            assert [row.tolist() for row in got] == [ys.tolist()] * 3
