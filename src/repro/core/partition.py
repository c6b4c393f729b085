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

The sweep runs in the C kernel of :mod:`repro.core.native` (``alg1.c``);
its Python reference lives beside the tests.  Inputs outside the kernel's
domain raise :class:`OutOfDomainError` up front.

A partition is a list of :class:`Piece`; :func:`frag_rows` turns it into
the rows that the C evaluator and the NeaTS payload writer read.  Lossy
mode with one pair is NeaTS-L's partition, and with (Linear, eps) PLA's.

Also provides the paper's variants: LeaTS (linear-only family set) and
SNeaTS (model selection of the top-5 pairs on a 10 % prefix sample).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import native
from .bitstream import bits_for_signed
from .models import FAMILIES, Family, Linear

__all__ = [
    "Piece", "as_int64", "frag_rows", "optimal_partition", "default_epsilons", "positivity_shift",
    "select_pairs", "FRAGMENT_OVERHEAD_BITS", "OutOfDomainError",
]

#: Algorithm 1's per-fragment cost (kappa) besides the raw parameters, for
#: the kind, width, S, O and D entries a fragment adds.  Measured on 16
#: datasets x 1024 points: the total payload size moves by at most 0.7 %
#: (29 184 to 29 368 B) over values 0..240, and with 80 the predicted bits
#: of the chosen paths are 96 % of the serialised ones.
FRAGMENT_OVERHEAD_BITS = 80

#: SNeaTS model selection (Section IV-C1): Algorithm 1 runs on a prefix of
#: ``_SAMPLE_FRAC`` of the series, at least ``_MIN_SAMPLE`` points, and keeps
#: the ``_TOP`` most-used (family, eps) pairs
_SAMPLE_FRAC, _MIN_SAMPLE, _TOP = 0.10, 512, 5

#: the kernel's family codes: positions in ``FAMILIES``
_KERNEL_KIND = {type(f): code for code, f in enumerate(FAMILIES)}
_KIND_ID = {f.kind: code for code, f in enumerate(FAMILIES)}


@dataclass(frozen=True)
class Piece:
    """A fragment [start, end) of the series with its fitted function.

    ``delta`` shifts the evaluation domain: the fragment's j-th value
    (j = 1..len) is approximated by the family's f at local x = j + delta.
    Suffix edges of Algorithm 1 reuse a function fitted at an earlier
    origin and set ``delta > 0``; AA's pieces set ``delta = -1``, which puts
    x = 0 at the fragment's first value.
    """
    start: int
    end: int
    kind: str
    eps: int
    params: tuple
    delta: int = 0

    def __len__(self) -> int:
        return self.end - self.start


def frag_rows(pieces: list[Piece], n: int) -> np.ndarray:
    """The ``native.FRAG`` rows of ``pieces``, which tile ``[0, n)`` in
    order, plus the sentinel row ``start = n``: the input of the C
    evaluator, ``native.evaluate``."""
    m = len(pieces)
    frags = np.zeros(m + 1, dtype=native.FRAG)
    frags["start"] = [p.start for p in pieces] + [n]
    frags["delta"][:m] = [p.delta for p in pieces]
    frags["kind"][:m] = [_KIND_ID[p.kind] for p in pieces]
    for row, p in zip(frags["p"], pieces):
        row[:len(p.params)] = p.params
    return frags


def default_epsilons(ys: np.ndarray) -> list[int]:
    """The paper's pessimistic E = {0} ∪ {2^b : 1 <= b < bitlen(Delta)},
    Delta the value range plus one (Section III-B)."""
    delta = int(ys.max()) - int(ys.min()) + 1
    return [0] + [1 << b for b in range(1, delta.bit_length())]


class OutOfDomainError(ValueError):
    """An input that Algorithm 1 does not take: a family outside
    ``models.FAMILIES``, no (family, eps) pair, a series that cannot be cast
    to int64, an eps outside [0, 2^64), or a series that its positivity
    shift takes past int64."""


def as_int64(values) -> np.ndarray:
    """``values`` as an int64 array.  Raises :class:`OutOfDomainError` for a
    non-empty series whose dtype does not cast to int64 safely (floats,
    uint64, Python ints past int64), instead of truncating or wrapping it."""
    ys = np.asarray(values)
    if ys.size and not np.can_cast(ys.dtype, np.int64):
        raise OutOfDomainError(f"a {ys.dtype} series cannot be cast to int64")
    return ys.astype(np.int64, copy=False)


def positivity_shift(ys: np.ndarray, families: list[Family], eps: int) -> int:
    """The global shift of footnote 2, stored in the header, that makes
    ``y - eps > 0`` for every ``y`` when a family in ``families`` needs it
    (else 0); ``eps`` is the largest error bound.  Raises
    :class:`OutOfDomainError` if the shift or the shifted series leaves
    int64."""
    if len(ys) == 0:
        return 0
    shift = 0
    if any(f.requires_positive for f in families):
        shift = max(0, int(eps) + 1 - int(ys.min()))
    if shift >= 1 << 63 or int(ys.max()) + shift >= 1 << 63:
        raise OutOfDomainError(f"the positivity shift {shift} takes the series past int64")
    return shift


def optimal_partition(
    ys: np.ndarray, families: list[Family], epsilons: list[int], *, lossy: bool = False,
) -> list[Piece]:
    """Algorithm 1. Returns the minimum-bit partition of ``ys``.

    ``ys`` must already satisfy the positivity requirement of any family in
    the set that needs it (the NeaTS encoder applies the global shift).
    In lossy mode pass a single-element ``epsilons``.
    """
    ys = as_int64(ys)
    if len(ys) == 0:
        return []
    outside = [f for f in families if type(f) not in _KERNEL_KIND]
    if outside:
        raise OutOfDomainError(f"family {outside[0]!r} is not one of models.FAMILIES")
    if not all(0 <= e < 1 << 64 for e in epsilons):
        raise OutOfDomainError(f"eps outside [0, 2^64) in {list(epsilons)}")
    pairs = [(f, int(e)) for f in families for e in epsilons]
    if not pairs:
        raise OutOfDomainError("no (family, eps) pair: the family or the eps list is empty")
    rows = native.alg1(
        np.ascontiguousarray(ys),
        [_KERNEL_KIND[type(f)] for f, _ in pairs],
        [e for _, e in pairs],
        [0 if lossy or e == 0 else bits_for_signed(e) for _, e in pairs],
        [f.param_bits + FRAGMENT_OVERHEAD_BITS for f, _ in pairs],
    )
    return [
        Piece(i, j, pairs[q][0].kind, pairs[q][1],
              pairs[q][0].params_from_mb(m, b, 1, y0), delta=i - fit_start)
        for i, j, q, fit_start, m, b, y0 in rows
    ]


def select_pairs(
    ys: np.ndarray, families: list[Family], epsilons: list[int],
) -> tuple[list[Family], list[int], list[tuple[str, int]]]:
    """SNeaTS model selection: run Algorithm 1 on a prefix sample, keep the
    most-used (family, eps) pairs (Section IV-C1)."""
    ys = np.asarray(ys)
    m = max(min(_MIN_SAMPLE, len(ys)), int(len(ys) * _SAMPLE_FRAC))
    sample_pieces = optimal_partition(ys[:m], families, epsilons)
    counts = Counter((p.kind, p.eps) for p in sample_pieces)
    keep = [pair for pair, _ in counts.most_common(_TOP)]
    kinds = {k for k, _ in keep}
    eps = {e for _, e in keep}
    # input order, not set order: the pair order breaks Algorithm 1's ties,
    # and a set of strings iterates in an order that varies per process
    out_fams = [f for f in families if f.kind in kinds]
    out_eps = sorted(eps)
    if not out_fams:  # degenerate tiny input
        out_fams, out_eps = [Linear()], sorted(set(epsilons))
    return out_fams, out_eps, keep
