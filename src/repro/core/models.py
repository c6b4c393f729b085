"""Two-parameter function families from Table I of the paper.

Each family knows how to rewrite the error constraints
``|f(x_k) - y_k| <= eps`` into the transformed form
``alpha_k <= t_k * m + b <= omega_k`` required by Theorem 1 and how to map
the fitted ``(m, b)`` back to its own parameters.  It does not evaluate
itself: ``eval_kind`` in ``neats.c`` holds the one copy of the Table I
formulas, which NeaTS, NeaTS-L, PLA and AA all reach through
:func:`repro.core.native.evaluate`.  The program reads the families'
metadata (``kind``, ``n_params``, ``requires_positive``) and
``params_from_mb``; the C kernel (``alg1.c``) fits and partitions for
NeaTS, NeaTS-L and PLA alike.  Nothing in the program calls the Python
fitter (``constraint``, ``FragmentFitter``, ``fit_fragment``): it is the
tests' reference for that kernel, and ``perfbench --trace 1`` wraps it, so
it stays here until the trace no longer names it.

Conventions
-----------
* Fragments use *local* integer coordinates ``x = 1, 2, ..., len`` (footnote 4
  of the paper: shifting the domain to the fragment start costs nothing since
  the start index is already stored in ``S``).
* ``y`` values are int64 and, for families flagged ``requires_positive``, the
  encoder guarantees ``y - eps > 0`` via a global shift stored in the header
  (footnote 2 of the paper; :func:`repro.core.partition.positivity_shift`).
* ``FragmentFitter`` drives a :class:`repro.core.convex.SegmentStabber`: it
  is the tests' reference for the kernel's ``MakeApproximation`` of
  Algorithm 1, which ``alg1.c`` implements.
"""
from __future__ import annotations

import math

from .convex import SegmentStabber

__all__ = [
    "Family", "Linear", "Radical", "Quadratic2", "Quadratic3", "Exponential",
    "Power", "Logarithmic", "CubicOdd", "FragmentFitter",
    "FAMILIES", "DEFAULT_FAMILIES", "family_by_kind", "fit_fragment",
]


class Family:
    """Base class: a two-parameter (plus optional anchored third) family."""

    kind: str = "?"
    #: number of float64 parameters serialised per fragment
    n_params: int = 2
    #: True if constraints need y - eps > 0 (log-domain transforms)
    requires_positive: bool = False
    #: True if the first fragment point anchors the function (3-param case)
    anchored: bool = False

    @property
    def param_bits(self) -> int:
        return 64 * self.n_params

    # -- Theorem 1 transform ------------------------------------------------
    def constraint(self, x: int, y: int, eps: int, x0: int, y0: int):
        """Return ``(t, lo, hi)`` for a data point at local ``x`` (>= 1).

        ``(x0, y0)`` is the fragment's first point (used by anchored
        families).  Raise ValueError if the transform is undefined.
        """
        raise NotImplementedError

    def params_from_mb(self, m: float, b: float, x0: int, y0: int) -> tuple:
        """The family's parameters from the fitted ``(m, b)``; most store
        them as they are."""
        return (m, b)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__}>"


class Linear(Family):
    """f(x) = th1*x + th2 — Table I row 4."""
    kind = "linear"

    def constraint(self, x, y, eps, x0, y0):
        return float(x), float(y - eps), float(y + eps)


class Radical(Family):
    """f(x) = th1*sqrt(x) + th2 — Table I row 5."""
    kind = "radical"

    def constraint(self, x, y, eps, x0, y0):
        return math.sqrt(x), float(y - eps), float(y + eps)


class Quadratic2(Family):
    """f(x) = th1*x^2 + th2 — Table I row 6."""
    kind = "quadratic2"

    def constraint(self, x, y, eps, x0, y0):
        return float(x) * x, float(y - eps), float(y + eps)


class Quadratic3(Family):
    """f(x) = th1*x^2 + th2*x + th3, anchored through the first point.

    Section III-A: fixing ``f(x0) = y0`` leaves two free parameters with
    ``t_k = x_k + x0`` and ``alpha/omega = (y_k - y0 -/+ eps)/(x_k - x0)``.
    We store ``(th1, th2, y0)``; the decoder recovers
    ``th3 = y0 - th1*x0^2 - th2*x0`` with ``x0 = 1`` in local coordinates.
    """
    kind = "quadratic3"
    n_params = 3
    anchored = True

    def constraint(self, x, y, eps, x0, y0):
        if x == x0:
            return None  # the anchor point is interpolated exactly
        dx = float(x - x0)
        return float(x + x0), (y - y0 - eps) / dx, (y - y0 + eps) / dx

    def params_from_mb(self, m, b, x0, y0):
        return (m, b, float(y0))


class Exponential(Family):
    """f(x) = th2 * e^(th1*x) — Table I row 1 (needs y - eps > 0)."""
    kind = "exponential"
    requires_positive = True

    def constraint(self, x, y, eps, x0, y0):
        if y - eps <= 0:
            raise ValueError("exponential family needs y - eps > 0")
        return float(x), math.log(y - eps), math.log(y + eps)

    def params_from_mb(self, m, b, x0, y0):
        return (m, math.exp(b))


class Power(Family):
    """f(x) = th2 * x^th1 — Table I row 2 (needs y - eps > 0)."""
    kind = "power"
    requires_positive = True

    def constraint(self, x, y, eps, x0, y0):
        if y - eps <= 0:
            raise ValueError("power family needs y - eps > 0")
        return math.log(x), math.log(y - eps), math.log(y + eps)

    def params_from_mb(self, m, b, x0, y0):
        return (m, math.exp(b))


class Logarithmic(Family):
    """f(x) = ln(th2 * x^th1) = th1*ln(x) + ln(th2) — Table I row 3; stored
    as (th1, ln th2)."""
    kind = "logarithmic"

    def constraint(self, x, y, eps, x0, y0):
        return math.log(x), float(y - eps), float(y + eps)


class CubicOdd(Family):
    """f(x) = th1*x^3 + th2*x — Table I row 8 (t_k = x_k^2, bounds /x_k)."""
    kind = "cubic_odd"

    def constraint(self, x, y, eps, x0, y0):
        fx = float(x)
        return fx * fx, (y - eps) / fx, (y + eps) / fx


#: every implemented Table-I family, for coverage tests
FAMILIES: list[Family] = [
    Linear(), Radical(), Quadratic2(), Quadratic3(), Exponential(),
    Power(), Logarithmic(), CubicOdd(),
]

#: the four kinds the paper's experiments use (Section IV-A)
DEFAULT_FAMILIES: list[Family] = [Linear(), Exponential(), Quadratic3(), Radical()]

_BY_KIND = {f.kind: f for f in FAMILIES}


def family_by_kind(kind: str) -> Family:
    return _BY_KIND[kind]


class FragmentFitter:
    """Greedy longest-fragment fitter for one ``(family, eps)`` pair.

    The tests' reference for ``MakeApproximation`` from Algorithm 1, which
    the C kernel runs: create it at a start index, feed points left to
    right with :meth:`try_extend`, and when it refuses a point the fragment
    is maximal; :meth:`params` returns the fitted function parameters valid
    for the whole accepted fragment.
    """

    def __init__(self, family: Family, eps: int) -> None:
        self.family = family
        self.eps = int(eps)
        self._stab = SegmentStabber()
        self._x0: int | None = None
        self._y0: int | None = None
        self._len = 0

    def __len__(self) -> int:
        return self._len

    def try_extend(self, y: int) -> bool:
        """Offer the next value; local x is assigned 1, 2, ... automatically."""
        x = self._len + 1
        if self._x0 is None:
            self._x0, self._y0 = x, int(y)
        c = self.family.constraint(x, int(y), self.eps, self._x0, self._y0)
        if c is None:  # anchored family's first point: always accepted
            self._len += 1
            return True
        t, lo, hi = c
        if not (math.isfinite(t) and math.isfinite(lo) and math.isfinite(hi)):
            return False
        if not self._stab.add(t, lo, hi):
            return False
        self._len += 1
        return True

    def params(self) -> tuple:
        if self._len == 0:
            raise ValueError("empty fragment")
        if len(self._stab) == 0:
            # anchored family with a single (anchor-only) point
            m, b = 0.0, 0.0
        else:
            m, b = self._stab.solve()
        return self.family.params_from_mb(m, b, self._x0, self._y0)


def fit_fragment(family: Family, eps: int, ys) -> tuple | None:
    """Fit one family to *all* of ``ys`` (local x = 1..len) or None if infeasible."""
    f = FragmentFitter(family, eps)
    for y in ys:
        if not f.try_extend(int(y)):
            return None
    return f.params()
