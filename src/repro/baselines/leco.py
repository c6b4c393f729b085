"""LeCo-style learned compression (Liu, Zeng, Zhang, SIGMOD 2024).

LeCo losslessly compresses a sequence as (learned model + bit-packed
residuals) per fragment, with native random access.  Per the paper's
description (Section V-b): a regression-learned model per fragment
(constant or linear, chosen by estimated size), and a *heuristic*
partitioner that starts from fixed-size fragments and greedily merges
neighbours when the size estimate improves — in contrast with NeaTS's
optimal error-bounded fit and optimal partitioning, which is precisely the
gap Table III quantifies.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.bitstream import BitReader, pack_bits, read_packed, signed_width

__all__ = ["LeCo"]

_INIT_BLOCK = 128
_META_BITS = 2 * 64 + 8 + 32 + 32  # slope+intercept, width byte, start, offset


@dataclass
class _Frag:
    start: int
    end: int
    slope: float
    intercept: float
    width: int


def _fit(ys: np.ndarray, start: int, end: int) -> tuple[float, float, int]:
    """Least-squares linear fit (falls back to constant) + residual width."""
    seg = ys[start:end].astype(np.float64)
    n = end - start
    xs = np.arange(n, dtype=np.float64)
    if n == 1:
        slope, intercept = 0.0, seg[0]
    else:
        xm, ym = xs.mean(), seg.mean()
        den = ((xs - xm) ** 2).sum()
        slope = float(((xs - xm) * (seg - ym)).sum() / den) if den else 0.0
        intercept = float(ym - slope * xm)
    resid = ys[start:end] - np.floor(slope * xs + intercept).astype(np.int64)
    return slope, intercept, signed_width(resid.tolist())


def _cost(frag_len: int, width: int) -> int:
    return frag_len * width + _META_BITS


class LeCo:
    def __init__(self, values: np.ndarray):
        ys = np.asarray(values, dtype=np.int64)
        self.n = len(ys)
        # initial fixed-size fragments
        bounds = list(range(0, self.n, _INIT_BLOCK)) + [self.n]
        frags: list[_Frag] = []
        for s, e in zip(bounds, bounds[1:]):
            sl, ic, w = _fit(ys, s, e)
            frags.append(_Frag(s, e, sl, ic, w))
        # one greedy neighbour-merge pass (the original's partitioner is a
        # single split-then-merge heuristic, not an iterate-to-fixpoint one —
        # its sub-optimality vs Algorithm 1 is part of what Table III shows)
        out: list[_Frag] = []
        i = 0
        while i < len(frags):
            if i + 1 < len(frags):
                a, b = frags[i], frags[i + 1]
                sl, ic, w = _fit(ys, a.start, b.end)
                if _cost(b.end - a.start, w) < _cost(len_(a), a.width) + _cost(len_(b), b.width):
                    out.append(_Frag(a.start, b.end, sl, ic, w))
                    i += 2
                    continue
            out.append(frags[i])
            i += 1
        self.frags = out
        self._starts = np.asarray([f.start for f in self.frags], dtype=np.int64)
        # pack the residuals, each biased by half its fragment's range
        lengths = [len_(f) for f in self.frags]
        per_point = lambda attr: np.repeat([getattr(f, attr) for f in self.frags], lengths)  # noqa: E731
        xs = np.arange(self.n) - np.repeat(self._starts, lengths)
        resid = ys - np.floor(per_point("slope") * xs + per_point("intercept")).astype(np.int64)
        widths = per_point("width").astype(np.int64)
        half = np.where(widths > 0, np.left_shift(1, np.maximum(widths - 1, 0)), 0)
        self._offsets = [0, *np.cumsum(np.multiply(lengths, [f.width for f in self.frags])).tolist()]
        # the scalar ``access`` reads one field through BitReader: ~0.4 us
        # against ~20 us for a one-element ``read_packed``
        self._corr = BitReader(pack_bits(resid + half, widths), self._offsets[-1])

    @property
    def size_bytes(self) -> int:
        bits = len(self._corr) + len(self.frags) * _META_BITS + 64
        return (bits + 7) // 8

    def access(self, k: int) -> int:
        if not 0 <= k < self.n:
            raise IndexError(k)
        i = int(np.searchsorted(self._starts, k, side="right")) - 1
        f = self.frags[i]
        yhat = int(np.floor(f.slope * (k - f.start) + f.intercept))
        if f.width:
            o = self._offsets[i] + (k - f.start) * f.width
            yhat += self._corr.read(o, f.width) - (1 << (f.width - 1))
        return yhat

    def decompress(self) -> np.ndarray:
        out = np.empty(self.n, dtype=np.int64)
        for i, f in enumerate(self.frags):
            ln = f.end - f.start
            xs = np.arange(ln, dtype=np.float64)
            vals = np.floor(f.slope * xs + f.intercept).astype(np.int64)
            if f.width:
                raw = read_packed(self._corr.words, f.width, np.arange(ln),
                                  start_bit=self._offsets[i]).astype(np.int64)
                vals += raw - (1 << (f.width - 1))
            out[f.start:f.end] = vals
        return out


def len_(f: _Frag) -> int:
    return f.end - f.start

