"""Online optimal single-line fitting of vertical segments (Theorem 1 substrate).

The paper reduces every two-parameter family ``f`` to finding a line
``l(t) = m*t + b`` that stabs the vertical segments ``[(t_k, lo_k), (t_k, hi_k)]``
for all points of a fragment (``alpha_k <= t_k*m + b <= omega_k`` in the
paper's notation).  This module implements the online feasibility test in
O(1) amortised time per point, the hull-based equivalent of O'Rourke's
convex-polygon maintenance [36] as generalised by Theorem 1: we track the
extreme feasible slopes ``slope_min``/``slope_max`` supported by tangents
between the upper convex hull of the lower endpoints and the lower convex
hull of the upper endpoints (cf. Xie et al., VLDBJ 2014, which is an
equivalent optimal formulation).

A line with slope ``m`` stabbing all segments exists iff

    slope_min = max_{i<j} (lo_j - hi_i)/(t_j - t_i)
             <= m <=
    slope_max = min_{i<j} (hi_j - lo_i)/(t_j - t_i)

and the binding pairs lie on the two convex hulls, where the supporting
points only ever move forward — hence amortised O(1) updates.

The program does not call this module: Algorithm 1 and PLA run through
the C kernel (``alg1.c``), which implements the same test.  It drives
``models.FragmentFitter``, the tests' reference for that kernel, and
``perfbench --trace 1`` wraps its methods; it moves to ``tests/`` once
the trace no longer names it.
"""
from __future__ import annotations

__all__ = ["SegmentStabber"]

_INF = float("inf")


def _cross(ox: float, oy: float, ax: float, ay: float, bx: float, by: float) -> float:
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)


class SegmentStabber:
    """Incremental feasibility of stabbing vertical segments with one line.

    ``add(t, lo, hi)`` returns True and extends the fragment if some line
    still stabs every segment including the new one; returns False (state
    unchanged) otherwise.  ``t`` must be strictly increasing across calls
    and ``lo <= hi``.
    """

    def __init__(self) -> None:
        self.ts: list[float] = []
        self.los: list[float] = []
        self.his: list[float] = []
        # Upper convex hull of (t, lo) points — candidates supporting slope_max.
        self._hull_lo: list[tuple[float, float]] = []
        # Lower convex hull of (t, hi) points — candidates supporting slope_min.
        self._hull_hi: list[tuple[float, float]] = []
        self.slope_min = -_INF
        self.slope_max = _INF
        # Support lines: (t0, y0) anchor + slope, for the O(1) feasibility test.
        self._max_line: tuple[float, float] | None = None  # anchor on a lo-point
        self._min_line: tuple[float, float] | None = None  # anchor on a hi-point

    def __len__(self) -> int:
        return len(self.ts)

    # -- hull helpers -------------------------------------------------------
    @staticmethod
    def _push_upper(hull: list[tuple[float, float]], p: tuple[float, float]) -> None:
        # keep right turns (cross <= 0) for an upper hull
        while len(hull) >= 2 and _cross(*hull[-2], *hull[-1], *p) >= 0:
            hull.pop()
        hull.append(p)

    @staticmethod
    def _push_lower(hull: list[tuple[float, float]], p: tuple[float, float]) -> None:
        while len(hull) >= 2 and _cross(*hull[-2], *hull[-1], *p) <= 0:
            hull.pop()
        hull.append(p)

    # -- main ---------------------------------------------------------------
    def add(self, t: float, lo: float, hi: float) -> bool:
        if lo > hi:
            raise ValueError(f"empty segment lo={lo} > hi={hi}")
        if self.ts and t <= self.ts[-1]:
            raise ValueError("t must be strictly increasing")
        n = len(self.ts)
        if n == 0:
            self.ts.append(t)
            self.los.append(lo)
            self.his.append(hi)
            self._hull_lo.append((t, lo))
            self._hull_hi.append((t, hi))
            return True

        # O(1) feasibility test against the two extreme support lines.
        if self._max_line is not None:
            t0, y0 = self._max_line
            if lo > y0 + self.slope_max * (t - t0) + 1e-12 * (abs(y0) + 1):
                return False
        if self._min_line is not None:
            t0, y0 = self._min_line
            if hi < y0 + self.slope_min * (t - t0) - 1e-12 * (abs(y0) + 1):
                return False
        if n == 1:
            # With two points any line through both segments is feasible.
            t1, lo1, hi1 = self.ts[0], self.los[0], self.his[0]
            self.slope_max = (hi - lo1) / (t - t1)
            self.slope_min = (lo - hi1) / (t - t1)
            self._max_line = (t1, lo1)
            self._min_line = (t1, hi1)
            self._accept(t, lo, hi)
            return True

        # Candidate slope updates are computed transactionally: walk the hulls
        # with an index pointer (no mutation), and only commit (slopes,
        # supports, hull-prefix pruning) once the point is known feasible.
        new_smax, new_max_line, cut_lo = self.slope_max, self._max_line, 0
        t0, y0 = self._max_line
        if hi < y0 + self.slope_max * (t - t0):
            # New slope_max = min over upper hull of lows of slope(hull_pt -> (t, hi)).
            h = self._hull_lo
            i = 0
            while i + 1 < len(h):
                s0 = (hi - h[i][1]) / (t - h[i][0])
                s1 = (hi - h[i + 1][1]) / (t - h[i + 1][0])
                if s1 <= s0:
                    i += 1  # support moves forward; prefix never binds again
                else:
                    break
            new_smax = (hi - h[i][1]) / (t - h[i][0])
            new_max_line, cut_lo = h[i], i

        new_smin, new_min_line, cut_hi = self.slope_min, self._min_line, 0
        t0, y0 = self._min_line
        if lo > y0 + self.slope_min * (t - t0):
            h = self._hull_hi
            i = 0
            while i + 1 < len(h):
                s0 = (lo - h[i][1]) / (t - h[i][0])
                s1 = (lo - h[i + 1][1]) / (t - h[i + 1][0])
                if s1 >= s0:
                    i += 1
                else:
                    break
            new_smin = (lo - h[i][1]) / (t - h[i][0])
            new_min_line, cut_hi = h[i], i

        if new_smin > new_smax:
            return False

        if cut_lo:
            del self._hull_lo[:cut_lo]
        if cut_hi:
            del self._hull_hi[:cut_hi]
        self.slope_max, self._max_line = new_smax, new_max_line
        self.slope_min, self._min_line = new_smin, new_min_line
        self._accept(t, lo, hi)
        return True

    def _accept(self, t: float, lo: float, hi: float) -> None:
        self.ts.append(t)
        self.los.append(lo)
        self.his.append(hi)
        self._push_upper(self._hull_lo, (t, lo))
        self._push_lower(self._hull_hi, (t, hi))

    # -- solution extraction -------------------------------------------------
    def solve(self) -> tuple[float, float]:
        """Return a feasible ``(m, b)``; for a single point the horizontal line."""
        n = len(self.ts)
        if n == 0:
            raise ValueError("no points")
        if n == 1:
            return 0.0, (self.los[0] + self.his[0]) / 2.0
        lo_m = self.slope_min if self.slope_min > -_INF else 0.0
        hi_m = self.slope_max if self.slope_max < _INF else lo_m
        for m in ((lo_m + hi_m) / 2.0, lo_m, hi_m):
            b_lo = max(lo - m * t for t, lo in zip(self.ts, self.los))
            b_hi = min(hi - m * t for t, hi in zip(self.ts, self.his))
            if b_lo <= b_hi:
                return m, (b_lo + b_hi) / 2.0
        # Numerical corner: fall back to least-infeasible midpoint.
        m = (lo_m + hi_m) / 2.0
        b_lo = max(lo - m * t for t, lo in zip(self.ts, self.los))
        b_hi = min(hi - m * t for t, hi in zip(self.ts, self.his))
        return m, (b_lo + b_hi) / 2.0
