"""Optimal Piecewise Linear Approximation (PLA) baseline — O'Rourke [36].

The paper's lossy baseline: for a fixed eps, the piecewise *linear*
approximation with the minimum number of pieces.  Algorithm 1 in lossy
mode with the single pair (Linear, eps) minimises the same count (every
piece weighs the same), so PLA is NeaTS-L restricted to that pair: the C
kernel partitions, and the reconstruction, the error check and the size
model are NeaTS-L's, so compression ratios are directly comparable with
NeaTS-L and AA (Table II), except that a single family needs no kind tag.
``tests/partition_reference.py`` keeps O'Rourke's greedy as the reference
that the kernel's pieces are checked against.
"""
from __future__ import annotations

from ..core.lossy import NeaTSLossy
from ..core.models import Linear

__all__ = ["PLA"]


class PLA(NeaTSLossy):
    kind_bits = 0

    @classmethod
    def compress(cls, values, eps: int) -> "PLA":
        return super().compress(values, eps, families=[Linear()])
