"""The NeaTS compressor: layout ⟨S, B, O, C, K, P, D⟩ + Algorithms 2 and 3.

``NeaTS.compress`` runs Algorithm 1 and encodes the resulting fragments
into one payload, the bytes of ``to_bytes``:

* ``S`` — fragment start positions, Elias-Fano (``S.rank`` locates the
  fragment covering an index).
* ``B`` — correction bit width per fragment (packed array).
* ``O`` — cumulative correction bit offsets, Elias-Fano.
* ``C`` — the packed corrections bit string.
* ``K`` — function kinds (packed array); ``rank_f`` over it addresses ``P_f``.
* ``P_f`` — per-kind parameter arrays.
* ``D`` — per-fragment domain offsets (footnote 4: fragments produced by
  suffix edges evaluate the fitted function at ``x + delta``).

A ``NeaTS`` object is that payload and a reader of it.  The C library
(``neats.c``) writes the payload from the fragment rows and corrections
(``neats_encode``, through ``ctypes``).  Reads go through
``native.library().Reader``, a CPython type (``reader.c``) built from the
payload ``bytes``: it validates the payload once, decodes S, B, O, K, P
and D into one row per fragment, which it allocates itself, and answers
``access`` as one method call taking and returning a Python int (bound to
the instance as its ``access``), and ``decompress``, ``scan`` and
``access_many`` as one call each that writes into an int64 array allocated
here, from those rows and the payload's own ``C`` words.  The type checks
every index against ``n``; the methods below only add the errors of the
public interface.  A payload that does not parse raises
:class:`CorruptPayloadError`.

Corrections ``c_k = y_k - floor(f(x_k))`` are stored two's-complement in
``B[i]`` bits.  ``floor(f(x))`` comes from the library's one evaluator for
the encoder and the decoder alike, so the two agree by construction on any
host (magic ``NTS2``; see ``neats.c`` for its rounding rules).  The width is
the observed one: ``ceil(log2(2*eps+1))`` as in the paper when the fit is
exact to its bound, wider where float roundoff lands ``floor`` one unit
off, so losslessness is unconditional.

Variants (Section IV-C1): ``variant='neats'`` (full family set),
``'leats'`` (linear only), ``'sneats'`` (top-5 pair model selection on a
10 % prefix).  The view locates fragments by binary search over its rows;
the header byte that would flag the constant-time ``S`` variant (Section
III-C) is always 0.
"""
from __future__ import annotations

import numpy as np

from . import native
from .models import DEFAULT_FAMILIES, Linear
from .partition import (
    as_int64, default_epsilons, frag_rows, optimal_partition, positivity_shift, select_pairs,
)

__all__ = ["NeaTS", "CorruptPayloadError", "VARIANTS"]

#: The ``variant`` names of :meth:`NeaTS.compress` (Section IV-C1); all
#: three write the same payload format
VARIANTS = ("neats", "leats", "sneats")

#: ``neats_view``'s error codes
_VIEW_ERRORS = {
    -1: "bad magic: not an NTS2 payload",
    -2: "a length field overruns the payload",
    -3: "a fragment count is out of range",
    -4: "a kind id is out of range",
    -5: "a parameter count is short of its fragments",
    -6: "an Elias-Fano section does not hold its count of values",
    -7: "the payload's sections contradict each other",
}


#: ``neats_encode``'s error codes
_ENCODE_ERRORS = {
    -2: "the payload overruns its buffer",
    -8: "correction width > 63 bits — approximation broken",
}


class CorruptPayloadError(ValueError):
    """The bytes are not a well-formed NTS2 NeaTS payload."""


class NeaTS:
    """Compressed representation of an int64 time series."""

    def __init__(self, ys, *, shift, pieces):
        """Encode ``ys`` (the series plus ``shift``) along Algorithm 1's
        ``pieces``: corrections from the shared evaluator, then the whole
        payload in one C call (``neats_encode``)."""
        n, m = len(ys), len(pieces)
        frags = frag_rows(pieces, n)
        cs = ys - native.evaluate(frags, floor=True)  # int64, wrapping as the decoder's sum does
        # C takes at most 63 bits a point; every other section a few words a fragment
        out = np.empty(8 * (n + 10 * m + 40), dtype=np.uint8)
        size = native.library().neats_encode(frags.ctypes.data, m, cs.ctypes.data, shift,
                                             out.ctypes.data, len(out))
        if size < 0:
            raise ValueError(_ENCODE_ERRORS[size])
        self._attach(out[:size].tobytes())

    def _attach(self, blob: bytes) -> None:
        """Validate ``blob`` and decode its fragment rows, in one C call.
        The reader holds ``blob`` and its rows for as long as it lives."""
        try:
            reader = native.library().Reader(blob)
        except ValueError as e:  # neats_view's error code
            raise CorruptPayloadError(_VIEW_ERRORS[e.args[0]]) from None
        self._blob, self._reader = blob, reader
        self.n, self.shift, self.m = reader.n, reader.shift, reader.m
        # access is the reader's own method, with no Python frame between,
        # unless a subclass or a wrapper installed on the class has replaced
        # NeaTS's: then every call goes through that replacement
        cls = type(self)
        if cls.access is cls.access_succinct is _ACCESS:
            self.access = self.access_succinct = reader.access

    # ------------------------------------------------------------------ build
    @classmethod
    def compress(cls, values, *, families=None, epsilons=None, variant: str = "neats") -> "NeaTS":
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}: one of {', '.join(VARIANTS)}")
        ys = as_int64(values)
        if len(ys) == 0:
            raise ValueError("empty series")
        families = list(DEFAULT_FAMILIES if families is None else families)
        if variant == "leats":
            families = [Linear()]
        if epsilons is None:
            epsilons = default_epsilons(ys)
        shift = positivity_shift(ys, families, max(epsilons, default=0))
        ys_shifted = ys + shift

        if variant == "sneats":
            families, epsilons, _ = select_pairs(ys_shifted, families, epsilons)

        pieces = optimal_partition(ys_shifted, families, list(epsilons))
        return cls(ys_shifted, shift=shift, pieces=pieces)

    # ------------------------------------------------------------ operations
    def decompress(self) -> np.ndarray:
        """Algorithm 2: full decompression."""
        out = np.empty(self.n, dtype=np.int64)
        self._reader.scan(0, out)
        return out

    def scan(self, lo: int, hi: int) -> np.ndarray:
        """Range query [lo, hi): locate the first fragment (``S.rank``), then
        decode fragment by fragment (Section IV-C4)."""
        if not 0 <= lo <= hi <= self.n:
            raise IndexError((lo, hi))
        out = np.empty(hi - lo, dtype=np.int64)
        self._reader.scan(lo, out)
        return out

    def access(self, k: int) -> int:
        """Algorithm 3: random access to T[k] (0-based); IndexError unless
        0 <= k < n.  An instance binds its reader's method in its place
        (see ``_attach``)."""
        return self._reader.access(k)

    #: Algorithm 3 over the stored succinct structures: the same call as
    #: ``access``
    access_succinct = access

    def access_many(self, ks) -> np.ndarray:
        """Algorithm 3 for every index in ``ks``, in one call."""
        ks = np.ascontiguousarray(ks, dtype=np.int64)
        out = np.empty(len(ks), dtype=np.int64)
        self._reader.access_many(ks, out)
        return out

    # ---------------------------------------------------------- serialisation
    def to_bytes(self) -> bytes:
        """Self-contained byte serialisation; its length is the honest
        compressed size used for every compression-ratio figure."""
        return self._blob

    @property
    def size_bytes(self) -> int:
        return len(self._blob)

    @classmethod
    def from_bytes(cls, blob) -> "NeaTS":
        obj = cls.__new__(cls)
        obj._attach(bytes(blob))
        return obj


_ACCESS = NeaTS.access
