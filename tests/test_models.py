"""Table I function families: transforms, fitting, evaluation."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import native
from repro.core.models import (
    FAMILIES, DEFAULT_FAMILIES, CubicOdd, Exponential, FragmentFitter, Linear,
    Logarithmic, Power, Quadratic2, Quadratic3, Radical, family_by_kind,
    fit_fragment,
)
from repro.core.partition import Piece, frag_rows

RNG = np.random.default_rng(0)


def _sample_from(family, n, rng):
    """Generate data exactly on a function of the family (positive values)."""
    xs = np.arange(1, n + 1, dtype=np.float64)
    if isinstance(family, Linear):
        return 3.0 * xs + 500.0
    if isinstance(family, Radical):
        return 40.0 * np.sqrt(xs) + 500.0
    if isinstance(family, Quadratic2):
        return 0.5 * xs * xs + 500.0
    if isinstance(family, Quadratic3):
        return 0.3 * xs * xs - 2.0 * xs + 700.0
    if isinstance(family, Exponential):
        return 500.0 * np.exp(0.01 * xs)
    if isinstance(family, Power):
        return 500.0 * np.power(xs, 0.4)
    if isinstance(family, Logarithmic):
        return 30.0 * np.log(xs) + 500.0
    if isinstance(family, CubicOdd):
        return 0.01 * xs**3 + 2.0 * xs + 0.0
    raise AssertionError(family)


def _evaluate(family, params, n, delta=0):
    """f(x) at local x = delta + 1 .. delta + n, from the C evaluator."""
    frags = frag_rows([Piece(0, n, family.kind, 0, tuple(params), delta)], n)
    return native.evaluate(frags, floor=False)


def _math_f(kind, params, x):
    """f(x) with the math module: the NTS2 evaluator's definition
    (left-to-right order, libm calls, x**3 as pow(x, 3.0))."""
    a, b, c = (*params, 0.0)[:3]
    if kind == "linear":
        v = a * x + b
    elif kind == "radical":
        v = a * math.sqrt(x) + b
    elif kind == "quadratic2":
        v = a * x * x + b
    elif kind == "quadratic3":
        v = a * x * x + b * x + (c - a - b)
    elif kind == "exponential":
        v = b * math.exp(min(a * x, 700.0))
    elif kind == "power":
        try:
            v = b * math.pow(x, a)
        except OverflowError:  # libm returns +inf here (x >= 1)
            v = b * math.inf
    elif kind == "logarithmic":
        v = a * math.log(x) + b
    else:
        v = a * math.pow(x, 3.0) + b * x
    return v


def _math_floor(kind, params, x):
    """floor of :func:`_math_f`; values outside int64 and NaN map to int64's
    minimum."""
    v = _math_f(kind, params, x)
    if not -2.0**63 <= v < 2.0**63:  # also NaN
        return -2**63
    return math.floor(v)


class TestTableIFamilies:
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.kind)
    @pytest.mark.parametrize("eps", [2, 8, 64])
    def test_fit_covers_exact_data_plus_noise(self, family, eps):
        """Data generated from the family + noise <= eps admits one fragment."""
        rng = np.random.default_rng(hash((family.kind, eps)) % 2**32)
        n = 200
        ys = _sample_from(family, n, rng)
        noise = rng.integers(-eps, eps + 1, n)
        data = np.round(ys).astype(np.int64) + noise
        data = np.maximum(data, eps + 1)  # positivity for log-domain families
        # fitting with 2*eps+1 slack: rounding + noise stay within the bound
        params = fit_fragment(family, 2 * eps + 1, data)
        assert params is not None, f"{family.kind} failed to cover its own data"
        approx = _evaluate(family, params, n)
        assert np.max(np.abs(approx - data)) <= 2 * eps + 1 + 1e-6

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.kind)
    def test_c_evaluator_matches_math_transcription(self, family):
        """The C evaluator gives exactly the math-module transcription above,
        for fitted parameters and for random ones, at local x up to 2^40:
        its floor for the NeaTS encoder and decoder, and the value itself
        for NeaTS-L and PLA."""
        rng = np.random.default_rng(7)
        data = np.round(_sample_from(family, 50, rng)).astype(np.int64)
        fitted = fit_fragment(family, 10, data)
        cases = [fitted] if fitted is not None else []
        for _ in range(40):
            p = [float(v) for v in rng.normal(0, 1, 3) * 10.0 ** rng.integers(-12, 4, 3)]
            cases.append(tuple(p[:family.n_params]))
        for params in cases:
            for delta in (0, 17, 2**20, 2**40):
                frags = frag_rows([Piece(0, 64, family.kind, 0, params, delta)], 64)
                xs = [float(delta + j + 1) for j in range(64)]
                want = [_math_floor(family.kind, params, x) for x in xs]
                assert native.evaluate(frags, floor=True).tolist() == want, (params, delta)
                # exact, with NaN equal to NaN
                np.testing.assert_array_equal(native.evaluate(frags, floor=False),
                                              [_math_f(family.kind, params, x) for x in xs])

    @given(kind=st.sampled_from(["linear", "quadratic2", "exponential"]),
           theta=st.floats(-1e3, 1e3), y0=st.floats(-1e12, 1e12),
           start=st.integers(0, 5), n=st.integers(1, 64))
    @settings(max_examples=200, deadline=None)
    def test_c_evaluator_at_delta_minus_one(self, kind, theta, y0, start, n):
        """AA's pieces (``delta = -1``) evaluate at local x = k - start,
        0 at the anchor, exactly as the math-module transcription does."""
        pieces = [Piece(0, start, "linear", 0, (0.0, 0.0))] if start else []
        pieces.append(Piece(start, start + n, kind, 0, (theta, y0), -1))
        out = native.evaluate(frag_rows(pieces, start + n), floor=False)[start:]
        np.testing.assert_array_equal(out, [_math_f(kind, (theta, y0), float(x)) for x in range(n)])

    @staticmethod
    def floors(values):
        """The C floor of each double in ``values``: one single-point linear
        row per value, ``f(x) = -0.0 * x + v``, which is ``v`` itself."""
        pieces = [Piece(k, k + 1, "linear", 0, (-0.0, v)) for k, v in enumerate(values)]
        return native.evaluate(frag_rows(pieces, len(values)), floor=True).tolist()

    def test_floor_edge_cases(self):
        """Truncating to int64 and stepping down below a negative
        non-integer is libm's floor, and outside int64 the sentinel."""
        up, down = (lambda v: math.nextafter(v, math.inf)), (lambda v: math.nextafter(v, -math.inf))
        values = [0.0, -0.0, -0.5, 0.5, -1.5, 1e-300, -1e-300, math.nan, -math.nan, math.inf, -math.inf]
        for i in (1.0, -1.0, 7.0, -7.0, 2.0**52, -(2.0**52), 2.0**53, -(2.0**53), 2.0**62, -(2.0**62)):
            values += [down(i), i, up(i)]
        values += [2.0**53 - 1, -(2.0**53 - 1), 2.0**53 + 2, -(2.0**53 + 2)]
        values += [2.0**63, -(2.0**63), down(2.0**63), down(-(2.0**63)), 2.0**64, -(2.0**64), 1e300, -1e300]
        want = [_math_floor("linear", (-0.0, v), 1.0) for v in values]
        assert self.floors(values) == want
        assert want[values.index(2.0**63)] == want[values.index(math.nan)] == -2**63

    @given(values=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=50))
    @settings(max_examples=200, deadline=None)
    def test_floor_matches_math_floor(self, values):
        assert self.floors(values) == [_math_floor("linear", (-0.0, v), 1.0) for v in values]

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.kind)
    def test_t_is_increasing_in_x(self, family):
        """Theorem 1 assumption (3): t_k positive increasing in x_k."""
        ts = []
        y = 1000
        for x in range(1, 50):
            c = family.constraint(x, y, 1, 1, y)
            if c is None:
                continue
            ts.append(c[0])
        assert all(b > a for a, b in zip(ts, ts[1:]))

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.kind)
    def test_constraint_brackets_value(self, family):
        """alpha_k <= (value transform) <= omega_k must hold for eps > 0."""
        y = 500
        for x in [1, 2, 10]:
            c = family.constraint(x, y, 4, 1, 480)
            if c is None:
                continue
            t, lo, hi = c
            assert lo <= hi
            assert math.isfinite(t) and math.isfinite(lo) and math.isfinite(hi)


class TestPositivity:
    def test_exponential_raises_on_nonpositive(self):
        with pytest.raises(ValueError):
            Exponential().constraint(1, 0, 1, 1, 0)

    def test_power_raises_on_nonpositive(self):
        with pytest.raises(ValueError):
            Power().constraint(1, 1, 2, 1, 1)

    def test_requires_positive_flags(self):
        assert Exponential().requires_positive
        assert Power().requires_positive
        assert not Linear().requires_positive


class TestFragmentFitter:
    def test_single_point_all_families(self):
        for fam in FAMILIES:
            f = FragmentFitter(fam, 1)
            assert f.try_extend(100)
            assert len(f) == 1
            params = f.params()
            v = _evaluate(fam, params, 1)[0]
            if fam.anchored:
                assert v == pytest.approx(100.0)

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            FragmentFitter(Linear(), 1).params()

    def test_eps_zero_exact_linear(self):
        f = FragmentFitter(Linear(), 0)
        for y in [10, 12, 14, 16]:
            assert f.try_extend(y)
        th1, th2 = f.params()
        assert th1 == pytest.approx(2.0)

    def test_quadratic3_anchor_exact(self):
        fam = Quadratic3()
        data = [100, 105, 120, 150]
        f = FragmentFitter(fam, 3)
        for y in data:
            assert f.try_extend(y)
        params = f.params()
        assert _evaluate(fam, params, 1)[0] == pytest.approx(100.0, abs=1e-9)

    def test_default_families_are_papers_four(self):
        kinds = {f.kind for f in DEFAULT_FAMILIES}
        assert kinds == {"linear", "exponential", "quadratic3", "radical"}

    def test_family_by_kind_roundtrip(self):
        for f in FAMILIES:
            assert family_by_kind(f.kind).kind == f.kind
