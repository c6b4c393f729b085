"""Optimal Piecewise Linear Approximation (PLA) baseline — O'Rourke [36].

The paper's lossy baseline: for a fixed eps, the greedy longest-fragment
piecewise *linear* approximation, which is optimal in the number of pieces.
It is a :class:`~repro.core.lossy.NeaTSLossy` with other pieces: the
reconstruction, the error check and the size model are NeaTS-L's, so
compression ratios are directly comparable with NeaTS-L and AA (Table II),
except that a single family needs no kind tag.
"""
from __future__ import annotations

import numpy as np

from ..core.lossy import NeaTSLossy
from ..core.models import Linear
from ..core.piecewise import piecewise_partition

__all__ = ["PLA"]


class PLA(NeaTSLossy):
    kind_bits = 0

    @classmethod
    def compress(cls, values, eps: int) -> "PLA":
        ys = np.asarray(values, dtype=np.int64)
        return cls(piecewise_partition(ys, Linear(), int(eps)), len(ys), 0, int(eps))
