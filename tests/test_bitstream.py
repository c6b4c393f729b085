"""Bit substrate: packer/reader, fixed-width packed arrays, vectorised reads."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bitstream import (
    BitRangeError, BitReader, bits_for, bits_for_signed,
    pack_bits, pad_words, read_packed, signed_width,
)


class BitWriter:
    """Append-only scalar bit writer: the reference that ``pack_bits`` is
    checked against, one field at a time with Python ints."""

    def __init__(self) -> None:
        self._words: list[int] = [0]
        self.nbits = 0

    def write(self, value: int, nbits: int) -> None:
        """Append the ``nbits`` low bits of ``value`` (LSB first)."""
        if nbits < 0 or (nbits == 0 and value != 0):
            raise ValueError(f"cannot write value {value} in {nbits} bits")
        value &= (1 << nbits) - 1 if nbits else 0
        while nbits > 0:
            pos = self.nbits & 63
            take = min(nbits, 64 - pos)
            self._words[-1] |= (value & ((1 << take) - 1)) << pos
            value >>= take
            nbits -= take
            self.nbits += take
            if (self.nbits & 63) == 0:
                self._words.append(0)

    def to_array(self) -> np.ndarray:
        n_words = (self.nbits + 63) // 64
        return np.array(self._words[:max(1, n_words)], dtype=np.uint64)


class TestBitsFor:
    @pytest.mark.parametrize("v,expect", [(0, 1), (1, 1), (2, 2), (3, 2), (255, 8), (256, 9)])
    def test_bits_for(self, v, expect):
        assert bits_for(v) == expect

    def test_bits_for_negative_raises(self):
        with pytest.raises(ValueError):
            bits_for(-1)

    @pytest.mark.parametrize("eps,expect", [(1, 2), (2, 3), (4, 4), (8, 5)])
    def test_bits_for_signed_matches_paper_formula(self, eps, expect):
        # ceil(log2(2*eps + 1))
        import math
        assert bits_for_signed(eps) == math.ceil(math.log2(2 * eps + 1)) == expect

    def test_signed_width_zero(self):
        assert signed_width([0, 0, 0]) == 0

    @pytest.mark.parametrize("vals,w", [([1], 2), ([-1], 1), ([-2], 2), ([3, -4], 3), ([7], 4)])
    def test_signed_width(self, vals, w):
        assert signed_width(vals) == w

    def test_signed_width_covers_range(self):
        for v in range(-100, 101):
            w = signed_width([v])
            if w:
                assert -(1 << (w - 1)) <= v <= (1 << (w - 1)) - 1

    @given(st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=20))
    def test_signed_width_is_widest_value(self, vals):
        """The array form agrees with the per-value widths it replaced."""
        def need(c):
            return 0 if c == 0 else (c.bit_length() if c > 0 else (-c - 1).bit_length()) + 1
        assert signed_width(np.asarray(vals, dtype=np.int64)) == max(map(need, vals))


class TestWriterReader:
    @given(st.lists(st.tuples(st.integers(1, 64), st.data()), max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_random_widths(self, specs):
        w = BitWriter()
        expected = []
        for nbits, data in specs:
            v = data.draw(st.integers(0, (1 << nbits) - 1))
            w.write(v, nbits)
            expected.append((v, nbits))
        r = BitReader(w.to_array(), w.nbits)
        pos = 0
        for v, nbits in expected:
            assert r.read(pos, nbits) == v
            pos += nbits

    @given(st.lists(st.tuples(st.integers(0, 64), st.data()), min_size=1, max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_pack_bits_matches_writer(self, specs):
        w = BitWriter()
        vals, widths = [], []
        for nbits, data in specs:
            v = data.draw(st.integers(0, (1 << nbits) - 1))
            w.write(v, nbits)
            vals.append(v)
            widths.append(nbits)
        words = pack_bits(np.asarray(vals, dtype=np.uint64), np.asarray(widths))
        assert np.array_equal(words, w.to_array())

    @given(st.lists(st.tuples(st.sampled_from([0, 0, 1, 7, 32, 63, 64]), st.data()), min_size=1, max_size=40),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_pack_bits_matches_writer_and_reader(self, specs, whole_words):
        """Widths include 0, and with ``whole_words`` the stream is padded to
        a multiple of 64 bits and ends in zero-width fields."""
        vals, widths = [], []
        for nbits, data in specs:
            vals.append(data.draw(st.integers(0, (1 << nbits) - 1)))
            widths.append(nbits)
        if whole_words:
            pad = -sum(widths) % 64
            while pad:
                widths.append(min(pad, 63))
                vals.append(0)
                pad -= widths[-1]
            widths += [0, 0]
            vals += [0, 0]
        w = BitWriter()
        for v, nbits in zip(vals, widths):
            w.write(v, nbits)
        words = pack_bits(np.asarray(vals, dtype=np.uint64), np.asarray(widths))
        assert np.array_equal(words, w.to_array())
        pos = np.cumsum(widths) - widths
        r = BitReader(words, w.nbits)
        assert [r.read(int(p), nb) for p, nb in zip(pos, widths)] == vals

    def test_zero_width_field_at_word_boundary(self):
        words = pack_bits([1, 2, 0], [32, 32, 0])
        assert words.tolist() == [1 | 2 << 32]
        assert BitReader(words, 64).read(64, 0) == 0
        assert read_packed(words, 0, [1, 2]).tolist() == [0, 0]
        assert read_packed(words, 32, [1]).tolist() == [2]
        assert read_packed(pack_bits([0, 0], [0, 0]), 0, [1]).tolist() == [0]

    def test_zero_width_write(self):
        w = BitWriter()
        w.write(0, 0)
        assert w.nbits == 0

    def test_zero_width_nonzero_value_raises(self):
        with pytest.raises(ValueError):
            BitWriter().write(3, 0)

    def test_out_of_range_read_raises(self):
        w = BitWriter()
        w.write(5, 8)
        r = BitReader(w.to_array(), w.nbits)
        with pytest.raises(IndexError):
            r.read(4, 8)

    def test_out_of_range_is_a_value_error(self):
        """Reading past the bits, or holding more bits than the words, is
        a ``ValueError`` too: a stream payload that ends early."""
        w = BitWriter()
        w.write(5, 8)
        with pytest.raises(ValueError):
            BitReader(w.to_array(), w.nbits).read(4, 8)
        with pytest.raises(BitRangeError):
            BitReader(w.to_array(), 65)

    def test_word_boundary_spanning(self):
        w = BitWriter()
        w.write(0, 60)
        w.write(0xDEADBEEF, 32)  # spans the 64-bit boundary
        r = BitReader(w.to_array(), w.nbits)
        assert r.read(60, 32) == 0xDEADBEEF

    def test_full_64bit_values(self):
        vals = [0, 1, (1 << 64) - 1, 0x8000000000000000]
        w = BitWriter()
        for v in vals:
            w.write(v, 64)
        r = BitReader(w.to_array(), w.nbits)
        for i, v in enumerate(vals):
            assert r.read(i * 64, 64) == v


class TestPackedArray:
    """A fixed-width array: ``pack_bits`` in cells of the largest value's
    width, ``read_packed`` back (how DAC, LeCo and ALP store theirs)."""

    @given(st.lists(st.integers(0, 10**9), max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, vals):
        width = bits_for(max(vals, default=0))
        words = pack_bits(np.asarray(vals, dtype=np.uint64), np.full(len(vals), width))
        assert read_packed(words, width, np.arange(len(vals))).tolist() == vals

    def test_width_minimal(self):
        assert bits_for(7) == 3
        words = pack_bits([0, 7], [3, 3])
        assert words.tolist() == [7 << 3]

    def test_width_64_roundtrip(self):
        """64-bit fields, as the XOR codecs write them, at every offset in
        a word: a field that starts mid-word spills its top bits."""
        vals = [2**64 - 1, 2**63 + 1, 0, 1, 0xDEADBEEFCAFEF00D]
        for lead in range(64):
            widths = [lead] + [64] * len(vals)
            words = pack_bits(np.asarray([0] + vals, dtype=np.uint64), widths)
            assert len(words) == (sum(widths) + 63) // 64
            r = BitReader(words, sum(widths))
            assert [r.read(lead + 64 * i, 64) for i in range(len(vals))] == vals
        with pytest.raises(ValueError):
            pack_bits([0], [65])


class TestReadPacked:
    @given(st.integers(1, 63), st.integers(0, 70), st.integers(0, 200))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_reader(self, width, lead_bits, count):
        """Every field in order after ``lead_bits``, and the fields at
        shuffled indexes (repeats included) from pre-padded words."""
        rng = np.random.default_rng(width * 1000 + count)
        vals = [int(v) for v in rng.integers(0, 1 << width, count, dtype=np.uint64)]
        w = BitWriter()
        w.write(0, lead_bits) if lead_bits else None
        for v in vals:
            w.write(v, width)
        r = BitReader(w.to_array(), w.nbits)
        got = read_packed(r.words, width, np.arange(count), start_bit=lead_bits)
        assert [int(g) for g in got] == vals
        idx = rng.integers(0, count, count) if count else np.zeros(0, dtype=np.int64)
        got = read_packed(pad_words(r.words), width, idx, start_bit=lead_bits, padded=True)
        assert [int(g) for g in got] == [vals[i] for i in idx]

    def test_zero_width(self):
        got = read_packed(np.zeros(1, dtype=np.uint64), 0, np.arange(5))
        assert list(got) == [0] * 5

    def test_width_64_rejected(self):
        with pytest.raises(ValueError):
            read_packed(np.zeros(2, dtype=np.uint64), 64, [0])
