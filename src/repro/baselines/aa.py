"""Adaptive Approximation (AA) baseline — Xu et al. [30], Qi et al. [31].

AA heuristically partitions a time series using linear, exponential, and
quadratic functions that *pass through the first data point* of each
fragment, leaving one free parameter per family.  For each fragment start
it greedily extends every family (a simple feasible-interval intersection,
which is sub-optimal compared to Theorem 1's two-parameter fit), keeps the
family reaching farthest, and emits that fragment.  This reproduces the
two properties the paper attributes to AA (Section IV-B): more fragments
than NeaTS-L, and zero error at fragment anchors — hence its slightly
better MAPE but worse compression ratio.

Only the partitioner is AA's own.  Its three functions are Table I's
Linear, Quadratic2 and Exponential with ``(theta, y0)`` as parameters, at
local x = k - start (a :class:`Piece` with ``delta = -1`` puts x = 0 at the
anchor), so AA is a :class:`NeaTSLossy`: the reconstruction through the C
evaluator, the error check and the size model are NeaTS-L's.
"""
from __future__ import annotations

import math

import numpy as np

from ..core.lossy import NeaTSLossy
from ..core.partition import Piece, as_int64

__all__ = ["AA"]

_KINDS = ("linear", "quadratic2", "exponential")


def _basis(kind: str, dx: float) -> float:
    if kind == "linear":
        return dx
    if kind == "quadratic2":
        return dx * dx
    raise AssertionError(kind)


def _extend_anchored(ys: np.ndarray, i: int, eps: float, kind: str) -> tuple[int, float]:
    """Longest fragment from ``i`` for an anchored one-parameter family.

    linear:      f(x) = y0 + theta*(x - x0)
    quadratic2:  f(x) = y0 + theta*(x - x0)^2
    exponential: f(x) = y0 * exp(theta*(x - x0))   (needs y0 > 0 and y_k > 0)
    Returns (end_exclusive, theta).
    """
    n = len(ys)
    y0 = float(ys[i])
    lo_t, hi_t = -math.inf, math.inf
    j = i + 1
    if kind == "exponential" and (y0 <= 0 or y0 - eps <= 0):
        return j, 0.0
    while j < n:
        dx = float(j - i)
        yk = float(ys[j])
        if kind == "exponential":
            if yk - eps <= 0:
                break
            lo = math.log((yk - eps) / y0) / dx
            hi = math.log((yk + eps) / y0) / dx
        else:
            base = _basis(kind, dx)
            lo = (yk - eps - y0) / base
            hi = (yk + eps - y0) / base
        nlo, nhi = max(lo_t, lo), min(hi_t, hi)
        if nlo > nhi:
            break
        lo_t, hi_t = nlo, nhi
        j += 1
    if not math.isfinite(lo_t):
        theta = 0.0
    else:
        theta = (lo_t + hi_t) / 2.0
    return j, theta


class AA(NeaTSLossy):
    @classmethod
    def compress(cls, values, eps: int) -> "AA":
        """Raises :class:`OutOfDomainError`, as NeaTS-L and PLA do, for values that int64 does not hold."""
        ys = as_int64(values).astype(np.float64)
        n = len(ys)
        pieces: list[Piece] = []
        i = 0
        while i < n:
            best_end, best_kind, best_theta = i + 1, "linear", 0.0
            for kind in _KINDS:
                end, theta = _extend_anchored(ys, i, float(eps), kind)
                if end > best_end:
                    best_end, best_kind, best_theta = end, kind, theta
            pieces.append(Piece(i, best_end, best_kind, eps, (best_theta, float(ys[i])), delta=-1))
            i = best_end
        return cls(pieces, n, 0, eps)
