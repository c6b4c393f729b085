"""The NeaTS compressor: layout ⟨S, B, O, C, K, P⟩ + Algorithms 2 and 3.

``NeaTS.compress`` runs Algorithm 1 and encodes the resulting fragments:

* ``S`` — fragment start positions, Elias-Fano (``S.rank`` locates the
  fragment covering an index); with ``index='bv'`` additionally a plain
  bitvector with an O(1) rank directory (the constant-time random-access
  variant of Section III-C).
* ``B`` — correction bit width per fragment (packed array).
* ``O`` — cumulative correction bit offsets, Elias-Fano.
* ``C`` — the packed corrections bit string.
* ``K`` — function kinds, in a wavelet matrix for ``rank_f``.
* ``P_f`` — per-kind parameter arrays, addressed by ``K.rank_f(i)``.
* ``D`` — per-fragment domain offsets (footnote 4: fragments produced by
  suffix edges evaluate the fitted function at ``x + delta``).

Corrections ``c_k = y_k - floor(f(x_k))`` are stored two's-complement in
``B[i]`` bits.  The width is ``ceil(log2(2*eps+1))`` as in the paper,
bumped to the observed maximum when float roundoff makes ``floor`` land
one unit off — losslessness is unconditional.

Variants (Section IV-C1): ``variant='neats'`` (full family set),
``'leats'`` (linear only), ``'sneats'`` (top-5 pair model selection on a
10 % prefix).
"""
from __future__ import annotations

import struct

import numpy as np

from .bitstream import (
    BitReader, PackedArray, bits_for_signed, gather_bits, pack_bits, pad_words, signed_width,
)
from .bitvector import RankBitvector
from .eliasfano import EliasFano
from .models import DEFAULT_FAMILIES, FAMILIES, Linear, family_by_kind
from .partition import default_epsilons, optimal_partition, select_pairs
from .piecewise import Piece
from .wavelet import WaveletTree

__all__ = ["NeaTS"]

_MAGIC = b"NTS1"
_KIND_ORDER = [f.kind for f in FAMILIES]  # global registry order for kind ids


def _eval_kind(kid: int, x, a, b, c):
    """Vectorised evaluation by kind id (indices follow ``FAMILIES`` order:
    linear, radical, quadratic2, quadratic3, exponential, power,
    logarithmic, cubic_odd) with the parameter layout of each family."""
    kind = _KIND_ORDER[kid]
    if kind == "linear":
        return a * x + b
    if kind == "radical":
        return a * np.sqrt(x) + b
    if kind == "quadratic2":
        return a * x * x + b
    if kind == "quadratic3":  # params (th1, th2, y0), anchor at local x0=1
        return a * x * x + b * x + (c - a - b)
    if kind == "exponential":
        return b * np.exp(np.minimum(a * x, 700.0))
    if kind == "power":
        return b * np.power(x, a)
    if kind == "logarithmic":
        return a * np.log(x) + b
    if kind == "cubic_odd":
        return a * x**3 + b * x
    raise ValueError(kind)


class NeaTS:
    """Compressed representation of an int64 time series."""

    def __init__(self, *, n, shift, pieces, index="ef"):
        self.n = int(n)
        self.shift = int(shift)  # stored values are y + shift
        self._index_mode = index
        m = len(pieces)
        self.m = m
        starts = [p.start for p in pieces]
        kinds = [_KIND_ORDER.index(p.kind) for p in pieces]
        deltas = [p.delta for p in pieces]

        # fit corrections fragment by fragment
        widths: list[int] = []
        biased: list[np.ndarray] = []  # corrections + 2^(w-1), stored unsigned
        offsets = [0]
        self._params_by_kind: dict[int, list[tuple]] = {k: [] for k in set(kinds)}
        self._eps = [p.eps for p in pieces]
        for p, kind_id in zip(pieces, kinds):
            fam = family_by_kind(p.kind)
            xs = np.arange(p.delta + 1, p.delta + len(p) + 1, dtype=np.float64)
            approx = np.floor(fam.evaluate(p.params, xs)).astype(np.int64)
            cs = p._frag_values - approx  # noqa: SLF001 — attached by compress()
            # The paper stores ceil(log2(2*eps+1)) bits; the corrections are
            # known at encode time, so we store the observed two's-complement
            # width instead — never larger than the eps width when the fit is
            # exact to its bound, and it also absorbs the rare one-off from
            # float floor() slop, keeping losslessness unconditional.
            w = signed_width(cs)
            if w > 63:
                raise ValueError("correction width > 63 bits — approximation broken")
            widths.append(w)
            biased.append(cs + (1 << (w - 1)) if w else cs)
            offsets.append(offsets[-1] + w * len(p))
            self._params_by_kind[kind_id].append(p.params)

        self.S = EliasFano(starts)
        self.B = PackedArray(widths)
        self.O = EliasFano(offsets)
        lengths = [len(p) for p in pieces]
        self.C = BitReader(pack_bits(np.concatenate(biased), np.repeat(widths, lengths)), offsets[-1])
        self.K = WaveletTree(kinds, len(_KIND_ORDER))
        self.D = PackedArray(deltas)
        self.Sbv = RankBitvector(starts, self.n) if index == "bv" else None
        self._starts = starts  # plain list for fast end lookup
        self._build_cache()

    # ------------------------------------------------------------------ build
    @classmethod
    def compress(
        cls,
        values,
        *,
        families=None,
        epsilons=None,
        variant: str = "neats",
        index: str = "ef",
        eps_step_bits: int = 1,
        eps_max_bits: int | None = None,
    ) -> "NeaTS":
        ys = np.asarray(values, dtype=np.int64)
        if len(ys) == 0:
            raise ValueError("empty series")
        families = list(DEFAULT_FAMILIES if families is None else families)
        if variant == "leats":
            families = [Linear()]
        if epsilons is None:
            epsilons = default_epsilons(ys, step_bits=eps_step_bits, max_bits=eps_max_bits)
        # global positivity shift (footnote 2): y - eps > 0 for the largest eps
        need_pos = any(f.requires_positive for f in families)
        shift = 0
        if need_pos:
            shift = int(max(epsilons) + 1 - ys.min())
            shift = max(shift, 0)
        ys_shifted = ys + shift

        if variant == "sneats":
            families, epsilons, _ = select_pairs(ys_shifted, families, epsilons)

        pieces = optimal_partition(ys_shifted, families, list(epsilons))
        # attach the fragment's raw (shifted) values for correction computation
        for p in pieces:
            object.__setattr__(p, "_frag_values", ys_shifted[p.start:p.end])
        return cls(n=len(ys), shift=shift, pieces=pieces, index=index)

    # ------------------------------------------------------------ operations
    def _fragment_end(self, i: int) -> int:
        return self._starts[i + 1] if i + 1 < self.m else self.n

    def _fragment_params(self, i: int, kind_id: int) -> tuple:
        rank = self.K.rank(kind_id, i + 1) - 1
        return self._params_by_kind[kind_id][rank]

    def _build_cache(self) -> None:
        """Flat per-fragment arrays for the hot paths.

        The succinct structures (S, B, O, K) are the *stored* representation
        and define the size; a C++ implementation walks them in nanoseconds.
        In Python their per-operation interpretation cost would swamp every
        speed measurement, so decompress/access use these decoded-once
        caches; ``access_succinct`` drives the real Algorithm 3 path and the
        tests assert both agree.
        """
        self._starts_np = np.asarray(self._starts, dtype=np.int64)
        kinds = [self.K.access(i) for i in range(self.m)]
        self._kinds_cache = kinds
        self._fams_cache = [family_by_kind(_KIND_ORDER[k]) for k in kinds]
        seen: dict[int, int] = {}
        params = []
        for k in kinds:
            r = seen.get(k, 0)
            params.append(self._params_by_kind[k][r])
            seen[k] = r + 1
        self._params_cache = params
        self._widths_cache = [self.B[i] for i in range(self.m)]
        self._offsets_cache = [self.O[i] for i in range(self.m)]
        self._deltas_cache = [self.D[i] for i in range(self.m)]
        # flat numpy mirrors for the kind-grouped vectorised scan
        self._kinds_np = np.asarray(kinds, dtype=np.int64)
        self._widths_np = np.asarray(self._widths_cache, dtype=np.int64)
        self._offsets_np = np.asarray(self._offsets_cache, dtype=np.int64)
        self._deltas_np = np.asarray(self._deltas_cache, dtype=np.int64)
        p3 = np.zeros((self.m, 3), dtype=np.float64)
        for i, p in enumerate(params):
            p3[i, : len(p)] = p
        self._p3 = p3
        self._present_kids = sorted(set(kinds))
        self._cwords_padded = pad_words(self.C.words)

    def decompress(self) -> np.ndarray:
        """Algorithm 2: full decompression — the kind-grouped vectorised
        scan over the whole index range (the paper's SIMD/parallel remark:
        every fragment decodes independently)."""
        return self.scan(0, self.n)

    def access(self, k: int) -> int:
        """Algorithm 3: random access to T[k] (0-based). Fast path over the
        decoded fragment-metadata cache; ``access_succinct`` is the same
        algorithm over the succinct structures themselves."""
        if not 0 <= k < self.n:
            raise IndexError(k)
        i = int(np.searchsorted(self._starts_np, k, side="right")) - 1
        start = self._starts[i]
        x = float(self._deltas_cache[i] + (k - start) + 1)
        yhat = int(self._fams_cache[i].evaluate1(self._params_cache[i], x) // 1)
        w = self._widths_cache[i]
        if w:
            o = self._offsets_cache[i] + (k - start) * w
            yhat += self.C.read(o, w) - (1 << (w - 1))
        return yhat - self.shift

    def access_succinct(self, k: int) -> int:
        """Algorithm 3 verbatim: S.rank (Elias-Fano or the O(1) bitvector
        variant), K via the wavelet matrix, params via K.rank_f, O via
        Elias-Fano — used by the structure-fidelity tests."""
        if not 0 <= k < self.n:
            raise IndexError(k)
        if self.Sbv is not None:
            start = self.Sbv.predecessor_one(k)
            i = self.Sbv.rank1(start + 1) - 1
        else:
            i = self.S.rank(k) - 1
            start = self.S[i]
        kind_id = self.K.access(i)
        params = self._fragment_params(i, kind_id)
        fam = family_by_kind(_KIND_ORDER[kind_id])
        delta = self.D[i]
        x = float(delta + (k - start) + 1)
        yhat = int(np.floor(fam.evaluate(params, np.array([x]))[0]))
        w = self.B[i]
        if w:
            o = self.O[i] + (k - start) * w
            yhat += self.C.read(o, w) - (1 << (w - 1))
        return yhat - self.shift

    def scan(self, lo: int, hi: int) -> np.ndarray:
        """Range query [lo, hi): locate the first fragment, then decode all
        touched values with a constant number of vectorised passes — one per
        function kind present — instead of a per-fragment loop
        (Section IV-C4 / the SIMD decompression of Section III-C)."""
        if not 0 <= lo <= hi <= self.n:
            raise IndexError((lo, hi))
        if lo == hi:
            return np.empty(0, dtype=np.int64)
        idx = np.arange(lo, hi, dtype=np.int64)
        f = np.searchsorted(self._starts_np, idx, side="right") - 1
        rel = idx - self._starts_np[f]
        x = (self._deltas_np[f] + rel + 1).astype(np.float64)
        a = self._p3[f, 0]
        b = self._p3[f, 1]
        c = self._p3[f, 2]
        if len(self._present_kids) == 1:
            out = _eval_kind(self._present_kids[0], x, a, b, c)
        else:
            out = np.empty(len(idx), dtype=np.float64)
            fk = self._kinds_np[f]
            for kid in self._present_kids:
                m = fk == kid
                if m.any():
                    out[m] = _eval_kind(kid, x[m], a[m], b[m], c[m])
        yhat = np.floor(out).astype(np.int64)
        w = self._widths_np[f]
        pos = self._offsets_np[f] + rel * w
        raw = gather_bits(self._cwords_padded, pos, w, padded=True).astype(np.int64)
        half = np.where(w > 0, np.int64(1) << np.maximum(w - 1, 0), 0)
        return yhat + raw - half - self.shift

    # ---------------------------------------------------------- serialisation
    def to_bytes(self) -> bytes:
        """Self-contained byte serialisation; its length is the honest
        compressed size used for every compression-ratio figure."""
        parts = [_MAGIC, struct.pack("<qqi", self.n, self.shift, self.m)]
        parts.append(struct.pack("<b", 1 if self.Sbv is not None else 0))
        # fragment metadata: starts (EF bits), widths, deltas, kinds
        parts.append(_pack_packed(self.B))
        parts.append(_pack_packed(self.D))
        parts.append(_pack_ef(self.S))
        parts.append(_pack_ef(self.O))
        kinds = [self.K.access(i) for i in range(self.m)]
        parts.append(_pack_packed(PackedArray(kinds)))
        # corrections
        parts.append(struct.pack("<q", len(self.C)))
        parts.append(np.ascontiguousarray(self.C.words).tobytes())
        # params per kind, in kind-id order
        for kind_id in sorted(self._params_by_kind):
            plist = self._params_by_kind[kind_id]
            np_ = family_by_kind(_KIND_ORDER[kind_id]).n_params
            parts.append(struct.pack("<ii", kind_id, len(plist)))
            arr = np.asarray([list(p) for p in plist], dtype=np.float64).reshape(len(plist), np_)
            parts.append(arr.tobytes())
        parts.append(struct.pack("<i", -1))
        return b"".join(parts)

    @property
    def size_bytes(self) -> int:
        return len(self.to_bytes())

    @classmethod
    def from_bytes(cls, blob: bytes) -> "NeaTS":
        if blob[:4] != _MAGIC:
            raise ValueError("bad magic")
        off = 4
        n, shift, m = struct.unpack_from("<qqi", blob, off)
        off += 20
        (has_bv,) = struct.unpack_from("<b", blob, off)
        off += 1
        B, off = _unpack_packed(blob, off)
        D, off = _unpack_packed(blob, off)
        S, off = _unpack_ef(blob, off)
        O, off = _unpack_ef(blob, off)
        Kp, off = _unpack_packed(blob, off)
        (cbits,) = struct.unpack_from("<q", blob, off)
        off += 8
        n_words = max(1, (cbits + 63) // 64)
        cw = np.frombuffer(blob, dtype=np.uint64, count=n_words, offset=off).copy()
        off += n_words * 8
        params_by_kind: dict[int, list[tuple]] = {}
        while True:
            (kind_id,) = struct.unpack_from("<i", blob, off)
            off += 4
            if kind_id == -1:
                break
            (cnt,) = struct.unpack_from("<i", blob, off)
            off += 4
            np_ = family_by_kind(_KIND_ORDER[kind_id]).n_params
            arr = np.frombuffer(blob, dtype=np.float64, count=cnt * np_, offset=off).reshape(cnt, np_)
            off += cnt * np_ * 8
            params_by_kind[kind_id] = [tuple(row) for row in arr]
        obj = cls.__new__(cls)
        obj.n, obj.shift, obj.m = n, shift, m
        obj._index_mode = "bv" if has_bv else "ef"
        obj.B, obj.D, obj.S, obj.O = B, D, S, O
        obj.C = BitReader(cw, cbits)
        kinds = Kp.to_list()
        obj.K = WaveletTree(kinds, len(_KIND_ORDER))
        obj._params_by_kind = params_by_kind
        obj._eps = None
        obj._starts = S.to_list()
        obj.Sbv = RankBitvector(obj._starts, n) if has_bv else None
        obj._build_cache()
        return obj


# -- component (de)serialisation helpers -------------------------------------

def _pack_packed(pa: PackedArray) -> bytes:
    words = pa.words
    return struct.pack("<iiq", len(pa), pa.width, len(words)) + np.ascontiguousarray(words).tobytes()


def _unpack_packed(blob: bytes, off: int) -> tuple[PackedArray, int]:
    n, width, n_words = struct.unpack_from("<iiq", blob, off)
    off += 16
    words = np.frombuffer(blob, dtype=np.uint64, count=n_words, offset=off).copy()
    off += n_words * 8
    pa = PackedArray.__new__(PackedArray)
    pa._n, pa._width = n, width
    pa._reader = BitReader(words, n * width)
    return pa, off


def _pack_ef(ef: EliasFano) -> bytes:
    return ef.serialize()


def _unpack_ef(blob: bytes, off: int) -> tuple[EliasFano, int]:
    return EliasFano.deserialize(blob, off)
