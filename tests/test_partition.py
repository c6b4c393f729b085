"""Algorithm 1: optimal DAG partitioning."""
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import lossy as lossy_mod, native, neats as neats_mod, partition
from repro.core.bitstream import bits_for_signed
from repro.core.lossy import NeaTSLossy
from repro.core.models import (
    DEFAULT_FAMILIES, FAMILIES, Exponential, Family, Linear, Power, family_by_kind,
)
from repro.core.neats import NeaTS
from repro.core.partition import (
    FRAGMENT_OVERHEAD_BITS, OutOfDomainError, default_epsilons, frag_rows, optimal_partition,
    select_pairs,
)
from repro.tsdata import DATASETS, load
from tests.partition_reference import optimal_partition_reference


def _series(seed, n=800):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    y = 3000 * np.sin(t / 70) + 0.8 * t + rng.normal(0, 6, n)
    y = y - y.min() + 1000
    return y.astype(np.int64)


def _modelled_bits(pieces):
    total = 0
    for p in pieces:
        fam = family_by_kind(p.kind)
        cb = bits_for_signed(p.eps) if p.eps > 0 else 0
        total += len(p) * cb + fam.param_bits + FRAGMENT_OVERHEAD_BITS
    return total


class TestOptimalPartition:
    @pytest.mark.parametrize("seed", range(5))
    def test_cover_contiguous(self, seed):
        ys = _series(seed)
        pieces = optimal_partition(ys, DEFAULT_FAMILIES, [0, 2, 8, 32])
        assert pieces[0].start == 0 and pieces[-1].end == len(ys)
        for a, b in zip(pieces, pieces[1:]):
            assert a.end == b.start

    @pytest.mark.parametrize("seed", range(5))
    def test_eps_bound_per_piece(self, seed):
        ys = _series(seed)
        pieces = optimal_partition(ys, DEFAULT_FAMILIES, [0, 2, 8, 32])
        approx = native.evaluate(frag_rows(pieces, len(ys)), floor=False)
        for p in pieces:
            err = np.max(np.abs(approx[p.start:p.end] - ys[p.start:p.end]))
            assert err <= p.eps + 1e-6

    def test_full_family_no_worse_than_linear_only(self):
        """The DAG over a superset of edges cannot yield a longer path."""
        ys = _series(1)
        eps = [0, 2, 8, 32]
        full = _modelled_bits(optimal_partition(ys, DEFAULT_FAMILIES, eps))
        lin = _modelled_bits(optimal_partition(ys, [Linear()], eps))
        assert full <= lin

    def test_more_epsilons_no_worse(self):
        ys = _series(2)
        small = _modelled_bits(optimal_partition(ys, [Linear()], [8]))
        big = _modelled_bits(optimal_partition(ys, [Linear()], [0, 2, 8, 32, 128]))
        assert big <= small

    def test_lossy_mode_single_eps(self):
        ys = _series(3)
        pieces = optimal_partition(ys, DEFAULT_FAMILIES, [50], lossy=True)
        assert pieces[-1].end == len(ys)
        for p in pieces:
            assert p.eps == 50

    def test_single_value(self):
        pieces = optimal_partition(np.asarray([7], dtype=np.int64), [Linear()], [0])
        assert len(pieces) == 1 and len(pieces[0]) == 1

    def test_two_values(self):
        pieces = optimal_partition(np.asarray([7, 9], dtype=np.int64), [Linear()], [0])
        assert pieces[-1].end == 2

    def test_empty(self):
        assert optimal_partition(np.asarray([], dtype=np.int64), [Linear()], [0]) == []

    def test_constant_series_one_fragment(self):
        ys = np.full(1000, 5, dtype=np.int64)
        pieces = optimal_partition(ys, [Linear()], [0])
        assert len(pieces) == 1

    def test_suffix_edges_produce_deltas(self):
        """On data with an abrupt regime change, some chosen fragment is a
        suffix of a maximal one (delta > 0) at least occasionally; and any
        delta respects the original fit domain."""
        rng = np.random.default_rng(0)
        ys = np.concatenate([
            (10 * np.arange(300) + rng.integers(-2, 3, 300)),
            (5000 - 7 * np.arange(300) + rng.integers(-2, 3, 300)),
        ]).astype(np.int64)
        pieces = optimal_partition(ys, DEFAULT_FAMILIES, [0, 2, 8])
        for p in pieces:
            assert p.delta >= 0


class TestDefaultEpsilons:
    def test_includes_zero_and_powers(self):
        ys = np.asarray([0, 1000], dtype=np.int64)
        eps = default_epsilons(ys)
        assert eps[0] == 0
        assert all(e & (e - 1) == 0 for e in eps[1:])
        assert max(eps) <= 1024


class TestSelectPairs:
    def test_returns_subset(self):
        ys = _series(4, n=2000)
        fams, eps, keep = select_pairs(ys, DEFAULT_FAMILIES, [0, 2, 8, 32])
        assert 0 < len(keep) <= 5
        kinds = {f.kind for f in DEFAULT_FAMILIES}
        assert all(k in kinds for k, _ in keep)
        assert all(e in [0, 2, 8, 32] for _, e in keep)
        assert len(fams) >= 1 and len(eps) >= 1

    def test_families_keep_input_order(self):
        """The pair order breaks Algorithm 1's ties, so it must not depend on
        the per-process order of a set of strings."""
        fams, _, keep = select_pairs(_series(4, n=2000), DEFAULT_FAMILIES, [0, 2, 8, 32])
        kept = {k for k, _ in keep}
        assert fams == [f for f in DEFAULT_FAMILIES if f.kind in kept]


# -- the C kernel against its Python reference ---------------------------------

def _bits(pieces):
    """A partition with its parameters as raw float64 bytes (-0.0 != 0.0)."""
    return [(p.start, p.end, p.kind, p.eps, p.delta,
             np.asarray(p.params, dtype=np.float64).tobytes()) for p in pieces]


def _outcome(fn, *args, **kwargs):
    try:
        return _bits(fn(*args, **kwargs))
    except AssertionError:  # no family covers some point: both must say so
        return "unreachable"


@st.composite
def _int64_series(draw):
    """Walks, noisy curves and plateaus of 1..600 int64 values, offset by up
    to +-2^62 so that y +- eps leaves the int64 range."""
    n = draw(st.integers(1, 600))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    offset = draw(st.sampled_from([0, 1, 1000, -1000, 2**40, -(2**40), 2**62, -(2**62)]))
    scale = 2 ** draw(st.integers(0, 48))
    x = np.arange(1, n + 1, dtype=np.float64)
    shape = draw(st.sampled_from(["walk", "exp", "quadratic", "sqrt", "plateaus"]))
    if shape == "walk":
        base = np.cumsum(rng.integers(-scale, scale + 1, n))
    elif shape == "exp":
        base = np.round(scale * np.exp(x / rng.uniform(20, 400))).astype(np.int64)
    elif shape == "quadratic":
        base = np.round(scale * (x - n / 2) ** 2 / n).astype(np.int64)
    elif shape == "sqrt":
        base = np.round(scale * np.sqrt(x)).astype(np.int64)
    else:
        base = np.repeat(rng.integers(-scale, scale + 1, n // 50 + 1), 50)[:n]
    noise = rng.integers(-3, 4, n) if draw(st.booleans()) else 0
    return (base + noise + offset).astype(np.int64)


_FAMILY_SETS = [FAMILIES, DEFAULT_FAMILIES] + [[f] for f in FAMILIES]
_EPS = [0, 1, 2, 3, 8, 100, 2**20, 2**40, 2**62, 2**63]


class TestKernelMatchesReference:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(ys=_int64_series(), families=st.sampled_from(_FAMILY_SETS),
           eps=st.lists(st.sampled_from(_EPS), min_size=1, max_size=4, unique=True),
           lossy=st.booleans())
    def test_same_partition(self, ys, families, eps, lossy):
        if lossy:
            eps = eps[:1]
        assert (_outcome(optimal_partition, ys, families, eps, lossy=lossy)
                == _outcome(optimal_partition_reference, ys, families, eps, lossy=lossy))

    @pytest.mark.parametrize("name", DATASETS)
    def test_same_payloads(self, name, monkeypatch):
        """Every variant serialises to the same bytes with either sweep."""
        ys = load(name, n=2048).ints
        variants = ("neats", "leats", "sneats")
        kernel = [NeaTS.compress(ys, variant=v).to_bytes() for v in variants]
        lossy = _bits(NeaTSLossy.compress(ys, 16).pieces)
        for mod in (partition, neats_mod, lossy_mod):  # every caller of the sweep
            monkeypatch.setattr(mod, "optimal_partition", optimal_partition_reference)
        assert kernel == [NeaTS.compress(ys, variant=v).to_bytes() for v in variants]
        assert lossy == _bits(NeaTSLossy.compress(ys, 16).pieces)


def _cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _invalid_tiles_series():
    """Exponential runs between runs of values <= 0, where no Exponential or
    Power fragment can start (y - eps <= 0): those pairs' tilings alternate
    valid tiles, which the path uses, with runs of invalid ones."""
    x = np.arange(1, 31)
    return np.concatenate([np.r_[0, 0, -7, 0, 0, np.round(50 * np.exp(0.15 * x)) + 7 * r]
                           for r in range(6)]).astype(np.int64)


class TestKernelThreads:
    """Phase 1 fits the pairs in as many threads as there are CPUs (at most
    one per pair); the thread count must not change a partition."""

    @pytest.mark.parametrize("ys, families, eps, lossy", [
        pytest.param(_series(3, n=300), FAMILIES,
                     [0] + [2**b for b in range(_cpus() // len(FAMILIES) + 1)], False,
                     id="more-pairs-than-cpus"),
        pytest.param(np.asarray([7]), FAMILIES, [0, 1, 8], False, id="n1"),
        pytest.param(np.asarray([7, -3]), FAMILIES, [0, 1, 8], False, id="n2"),
        pytest.param(np.asarray([7, 9, 2**62]), FAMILIES, [0, 1, 8], False, id="n3"),
        pytest.param(_series(4, n=500), [Linear()], [8], True, id="one-pair-lossy"),
        pytest.param(_series(5, n=500), [Exponential()], [64], True, id="one-exp-pair-lossy"),
        pytest.param(_invalid_tiles_series(), FAMILIES, [0, 4], False, id="invalid-tiles"),
        pytest.param(_invalid_tiles_series(), [Exponential(), Power()], [0, 2], False,
                     id="invalid-tiles-unreachable"),
    ])
    def test_same_partition(self, ys, families, eps, lossy):
        assert (_outcome(optimal_partition, ys, families, eps, lossy=lossy)
                == _outcome(optimal_partition_reference, ys, families, eps, lossy=lossy))

    @staticmethod
    def assert_pinned_payloads(ncpu):
        """1 024-point blocks of the 16 sets compress to the same bytes in a
        process pinned to ``ncpu`` CPUs as in this one."""
        code = ("import hashlib, os, sys; os.sched_setaffinity(0, map(int, sys.argv[1:])); "
                "from repro.core.neats import NeaTS; from repro.tsdata import DATASETS, load; "
                "print(len(os.sched_getaffinity(0))); "
                "[print(hashlib.sha256(NeaTS.compress(load(d, n=2048).ints[b:b + 1024])"
                ".to_bytes()).hexdigest()) for d in DATASETS for b in (0, 1024)]")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        cpus = sorted(os.sched_getaffinity(0))[:ncpu]
        out = subprocess.run([sys.executable, "-c", code, *map(str, cpus)],
                             env=env, capture_output=True, text=True, timeout=300, check=True)
        pinned = out.stdout.split()
        here = [hashlib.sha256(NeaTS.compress(load(d, n=2048).ints[b:b + 1024]).to_bytes())
                .hexdigest() for d in DATASETS for b in (0, 1024)]
        assert pinned[0] == str(ncpu)
        assert pinned[1:] == here

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
    def test_one_cpu_same_payloads(self):
        """One CPU: the caller fits every pair, no thread is made."""
        self.assert_pinned_payloads(1)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or _cpus() < 2, reason="needs 2 CPUs")
    def test_two_cpus_same_payloads(self):
        """Two CPUs: one worker thread, made on the CPU the caller is not on."""
        self.assert_pinned_payloads(2)


class TestKernelBuild:
    def test_failed_build_raises_typed_error(self, monkeypatch):
        """No fallback: without the library, encoding and decoding both stop
        with NativeLibraryError, on every use."""
        def fail(*args, **kwargs):
            raise OSError("no compiler")

        ys = load("IT", n=300).ints
        payload = NeaTS.compress(ys).to_bytes()
        monkeypatch.setattr(native, "build", fail)
        native.library.cache_clear()
        try:
            for _ in range(2):
                with pytest.raises(native.NativeLibraryError, match="no compiler"):
                    optimal_partition(ys, DEFAULT_FAMILIES, [0, 4])
                with pytest.raises(native.NativeLibraryError, match="no compiler"):
                    NeaTS.from_bytes(payload)
        finally:
            native.library.cache_clear()

    def test_concurrent_builds_on_empty_cache(self, tmp_path):
        """Two processes building into one empty cache both load the same
        library, and no temporary file is left behind."""
        code = ("import ctypes, sys; from repro.core import native; "
                "p = native.build(sys.argv[1]); ctypes.CDLL(p).neats_view; print(p)")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        procs = [subprocess.Popen([sys.executable, "-c", code, str(tmp_path)], env=env,
                                  stdout=subprocess.PIPE, text=True) for _ in range(2)]
        outs = [p.communicate(timeout=120)[0].strip() for p in procs]
        assert [p.returncode for p in procs] == [0, 0]
        assert outs[0] == outs[1]
        assert os.listdir(tmp_path) == [os.path.basename(outs[0])]

    def test_sources_compile_without_warnings(self, tmp_path):
        """The library's sources build under its own flags with -Wall
        -Wextra -Werror."""
        sources = [os.path.join(native._DIR, name) for name in native._SOURCES]
        proc = subprocess.run(["gcc", *native._FLAGS, "-Wall", "-Wextra", "-Werror", f"-I{native._INCLUDE}",
                               "-o", str(tmp_path / "neats.so"), *sources, "-lm"],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class _NotAFamily(Family):
    kind = "linear"


class TestInputDomain:
    """Inputs outside the kernel's domain are rejected up front."""

    def test_family_outside_families(self):
        with pytest.raises(OutOfDomainError, match="FAMILIES"):
            optimal_partition(np.arange(10), [_NotAFamily()], [0])

    @pytest.mark.parametrize("ys", [np.arange(10, dtype=np.float64), np.arange(10, dtype=np.uint64),
                                    np.asarray([1, 2**70], dtype=object)])
    def test_series_not_int64(self, ys):
        with pytest.raises(OutOfDomainError, match="int64"):
            optimal_partition(ys, [Linear()], [0])

    @pytest.mark.parametrize("eps", [-1, 2**64])
    def test_eps_outside_range(self, eps):
        with pytest.raises(OutOfDomainError, match="eps"):
            optimal_partition(np.arange(10), [Linear()], [0, eps])

    def test_limits_accepted(self):
        assert optimal_partition(np.arange(10, dtype=np.int32), [Linear()], [0, 2**64 - 1])
