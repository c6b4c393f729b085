"""Algorithm 1: space-optimal partitioning of a time series.

Builds the implicit DAG whose nodes are positions ``0..n`` and whose edges
are the maximal fragments computed by Theorem 1 for every ``(f, eps)`` pair
— plus their prefixes and suffixes, split on the fly while sweeping the
nodes — and extracts the shortest (minimum-bit) path.

Weights:

* lossless — ``w(i, j) = (j - i) * ceil(log2(2*eps + 1)) + kappa_f`` where
  ``kappa_f`` is the parameter storage of ``f`` plus small per-fragment
  metadata (kind, correction width, Elias-Fano/offset amortised overhead);
* lossy — ``w(i, j) = kappa_f`` (corrections are dropped).

Suffix edges reuse the function fitted at the original fragment origin, so
the resulting :class:`Piece` records the domain offset ``delta`` (cf.
footnote 4 of the paper; the offset is stored per fragment and its cost is
part of the per-fragment overhead constant).

The sweep runs in the C kernel of :mod:`repro.core.alg1`, which returns
the same partition bit for bit; :func:`_optimal_partition_py` is its
reference, and runs instead where the kernel cannot be built or cannot
represent the input.

Also provides the paper's variants: LeaTS (linear-only family set) and
SNeaTS (model selection of the top-5 pairs on a 10 % prefix sample).
"""
from __future__ import annotations

from collections import Counter

import numpy as np

from . import alg1
from .bitstream import bits_for_signed
from .models import DEFAULT_FAMILIES, FAMILIES, Family, FragmentFitter, Linear
from .piecewise import Piece

__all__ = [
    "optimal_partition", "default_epsilons", "select_pairs",
    "FRAGMENT_OVERHEAD_BITS",
]

#: per-fragment metadata bits besides the raw parameters: function kind +
#: correction width + amortised Elias-Fano (S, O) entries + delta storage,
#: calibrated against the measured serialised layout (~90 bits/fragment).
FRAGMENT_OVERHEAD_BITS = 80

_INF = float("inf")

#: the kernel's family codes: positions in ``FAMILIES``
_KERNEL_KIND = {type(f): code for code, f in enumerate(FAMILIES)}


def default_epsilons(ys: np.ndarray, *, step_bits: int = 2, max_bits: int | None = None) -> list[int]:
    """The paper's pessimistic E = {0, 2^1, ..., 2^ceil(log Delta)} thinned.

    We keep ``eps = 0`` and powers of two with a stride of ``step_bits``
    (the full set is O(log Delta) and the thinning only trades a little
    ratio for compression speed; cf. Section III-B complexity analysis).
    """
    delta = int(ys.max()) - int(ys.min()) + 1
    top = max(1, delta.bit_length())
    if max_bits is not None:
        top = min(top, max_bits)
    return [0] + [1 << b for b in range(1, top, step_bits)]


class _PairState:
    """Per-(family, eps) bookkeeping: the maximal fragment overlapping the sweep."""

    __slots__ = ("family", "eps", "start", "end", "params", "corr_bits", "kappa", "valid")

    def __init__(self, family: Family, eps: int):
        self.family = family
        self.eps = int(eps)
        self.start = -1
        self.end = -1
        self.params: tuple = ()
        self.corr_bits = bits_for_signed(self.eps) if self.eps > 0 else 0
        self.kappa = family.param_bits + FRAGMENT_OVERHEAD_BITS
        self.valid = False

    def refresh(self, ys: np.ndarray, k: int) -> None:
        """MakeApproximation(T, k, f, eps): greedy maximal fragment from k."""
        fitter = FragmentFitter(self.family, self.eps)
        n = len(ys)
        j = k
        while j < n:
            try:
                ok = fitter.try_extend(int(ys[j]))
            except ValueError:
                ok = False
            if not ok:
                break
            j += 1
        self.start = k
        if j == k:  # family undefined at this point (e.g. positivity)
            self.end = k + 1
            self.valid = False
            return
        self.end = j
        self.params = fitter.params()
        self.valid = True


def optimal_partition(
    ys: np.ndarray,
    families: list[Family] | None = None,
    epsilons: list[int] | None = None,
    *,
    lossy: bool = False,
) -> list[Piece]:
    """Algorithm 1. Returns the minimum-bit partition of ``ys``.

    ``ys`` must already satisfy the positivity requirement of any family in
    the set that needs it (the NeaTS encoder applies the global shift).
    In lossy mode pass a single-element ``epsilons``.
    """
    families = DEFAULT_FAMILIES if families is None else families
    if epsilons is None:
        epsilons = [0] if lossy else default_epsilons(np.asarray(ys))
    ys = np.asarray(ys)
    if len(ys) == 0:
        return []
    if (alg1.library() is None or any(type(f) not in _KERNEL_KIND for f in families)
            or not np.can_cast(ys.dtype, np.int64)
            or not all(0 <= e < 1 << 64 for e in epsilons)):
        return _optimal_partition_py(ys, families, epsilons, lossy=lossy)
    pairs = [_PairState(f, e) for f in families for e in epsilons]
    rows = alg1.run(
        np.ascontiguousarray(ys, dtype=np.int64),
        [_KERNEL_KIND[type(p.family)] for p in pairs],
        [p.eps for p in pairs],
        [0 if lossy else p.corr_bits for p in pairs],
        [p.kappa for p in pairs],
    )
    return [
        Piece(i, j, pairs[q].family.kind, pairs[q].eps,
              pairs[q].family.params_from_mb(m, b, 1, y0), delta=i - fit_start)
        for i, j, q, fit_start, m, b, y0 in rows
    ]


def _optimal_partition_py(
    ys: np.ndarray, families: list[Family], epsilons: list[int], *, lossy: bool = False,
) -> list[Piece]:
    """Algorithm 1 in Python: the kernel's reference (same partition, bit for bit)."""
    n = len(ys)
    pairs = [_PairState(f, e) for f in families for e in epsilons]

    distance = [_INF] * (n + 1)
    distance[0] = 0.0
    # previous[j] = (i, pair, fit_start) for the best edge (i, j) found so far
    previous: list[tuple[int, _PairState, int, tuple] | None] = [None] * (n + 1)

    def weight(p: _PairState, i: int, j: int) -> float:
        if lossy:
            return p.kappa
        return (j - i) * p.corr_bits + p.kappa

    for k in range(n):
        for p in pairs:
            if p.end <= k:
                p.refresh(ys, k)
            if not p.valid:
                continue
            # relax prefix edge (start, k)
            i = p.start
            if i < k and distance[i] + weight(p, i, k) < distance[k]:
                distance[k] = distance[i] + weight(p, i, k)
                previous[k] = (i, p, p.start, p.params)
        dk = distance[k]
        if dk == _INF:
            raise AssertionError(f"node {k} unreachable — partition invariant broken")
        for p in pairs:
            if not p.valid:
                continue
            # relax suffix edge (k, end)
            j = p.end
            if distance[k] + weight(p, k, j) < distance[j]:
                distance[j] = dk + weight(p, k, j)
                previous[j] = (k, p, p.start, p.params)

    # read the shortest path backwards
    pieces: list[Piece] = []
    k = n
    while k != 0:
        prev = previous[k]
        if prev is None:
            raise AssertionError(f"node {k} has no predecessor")
        i, p, fit_start, params = prev
        pieces.append(
            Piece(i, k, p.family.kind, p.eps, params, delta=i - fit_start)
        )
        k = i
    pieces.reverse()
    return pieces


def select_pairs(
    ys: np.ndarray,
    families: list[Family],
    epsilons: list[int],
    *,
    sample_frac: float = 0.10,
    top: int = 5,
    min_sample: int = 512,
) -> tuple[list[Family], list[int], list[tuple[str, int]]]:
    """SNeaTS model selection: run Algorithm 1 on a prefix sample, keep the
    top-``top`` most-used (family, eps) pairs (Section IV-C1)."""
    ys = np.asarray(ys)
    m = max(min(min_sample, len(ys)), int(len(ys) * sample_frac))
    sample_pieces = optimal_partition(ys[:m], families, epsilons)
    counts = Counter((p.kind, p.eps) for p in sample_pieces)
    keep = [pair for pair, _ in counts.most_common(top)]
    kinds = {k for k, _ in keep}
    eps = {e for _, e in keep}
    # input order, not set order: the pair order breaks Algorithm 1's ties,
    # and a set of strings iterates in an order that varies per process
    out_fams = [f for f in families if f.kind in kinds]
    out_eps = sorted(eps)
    if not out_fams:  # degenerate tiny input
        out_fams, out_eps = [Linear()], sorted(set(epsilons))
    return out_fams, out_eps, keep
