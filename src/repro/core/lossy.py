"""NeaTS-L: the lossy variant of NeaTS (Section III-B, last paragraph).

Runs Algorithm 1 with ``E = {eps}`` and edge weights equal to the function
parameter bits only (corrections are dropped), producing the space-minimal
piecewise nonlinear eps-approximation.  The output guarantees
``|f(x_k) - y_k| <= eps`` for every point (L-infinity bound).
"""
from __future__ import annotations

import numpy as np

from . import native
from .models import DEFAULT_FAMILIES, family_by_kind
from .partition import Piece, as_int64, frag_rows, optimal_partition, positivity_shift

__all__ = ["NeaTSLossy", "mape"]


def mape(actual: np.ndarray, approx: np.ndarray) -> float:
    """Mean absolute percentage error, skipping zero actual values."""
    actual = np.asarray(actual, dtype=np.float64)
    approx = np.asarray(approx, dtype=np.float64)
    nz = actual != 0
    if not nz.any():
        return 0.0
    return float(np.mean(np.abs((approx[nz] - actual[nz]) / actual[nz]))) * 100.0


class NeaTSLossy:
    """Space-minimal piecewise nonlinear eps-approximation of a series."""

    #: bits of the per-piece kind tag in :attr:`size_bytes`
    kind_bits = 2

    def __init__(self, pieces: list[Piece], n: int, shift: int, eps: int):
        self.pieces = pieces
        self.n = n
        self.shift = shift
        self.eps = eps

    @classmethod
    def compress(cls, values, eps: int, *, families=None) -> "NeaTSLossy":
        ys = as_int64(values)
        families = list(DEFAULT_FAMILIES if families is None else families)
        shift = positivity_shift(ys, families, eps)
        pieces = optimal_partition(ys + shift, families, [int(eps)], lossy=True)
        return cls(pieces, len(ys), shift, int(eps))

    def approximate(self) -> np.ndarray:
        """The lossy reconstruction (float64), error <= eps per point, from
        the C evaluator that NeaTS payloads use."""
        return native.evaluate(frag_rows(self.pieces, self.n), floor=False) - self.shift

    @property
    def size_bytes(self) -> int:
        """Uniform size model of the lossy outputs (NeaTS-L, PLA and AA
        alike, so their ratios compare): per piece, its parameters as
        float64s, a kind tag and an amortised Elias-Fano start entry (start
        and delta, 32 bits); plus a 16-byte header."""
        params_bits = 64 * sum(family_by_kind(p.kind).n_params for p in self.pieces)
        return 16 + (params_bits + len(self.pieces) * (32 + self.kind_bits) + 7) // 8

    def max_error(self, values) -> float:
        return float(np.max(np.abs(self.approximate() - np.asarray(values, dtype=np.float64))))
