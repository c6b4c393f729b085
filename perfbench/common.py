"""Inputs, statistics and the run record shared by the three workloads."""
from __future__ import annotations

import os
import platform
import statistics
import sys
import time

import numpy as np

#: The dataset mix every workload rotates over (generators in
#: ``repro.tsdata``): ECG has few long nonlinear fragments, IT is a trend,
#: DU is bursty with many short fragments and BP has high entropy.
MIX = ("ECG", "IT", "DU", "BP")

#: Points per block: the codec workload's item, and the ``block_size`` the
#: Spark workloads pass to ``compress_to_blocks`` and ``point_lookup``.  The
#: program's default is 4096; at 4096 one block takes 1.3-3.0 s to compress,
#: so an ingest round (4 series of 4 blocks, encoded in one Spark task) takes
#: 30-45 s and the query store build 10 s, and a run could not hold enough
#: operations for steady medians in its time (README "Block size").
BLOCK = 1024

MB = 1e6


def load_blocks(name: str, n_blocks: int, seed: int) -> np.ndarray:
    """``n_blocks * BLOCK`` int64 values of dataset ``name`` for ``seed``."""
    from repro.tsdata import load

    return load(name, n=n_blocks * BLOCK, seed=seed).ints


_T0 = time.perf_counter()


def log(msg: str) -> None:
    """Progress on standard error, with seconds since the benchmark started."""
    print(f"perfbench [{time.perf_counter() - _T0:6.1f}s] {msg}", file=sys.stderr, flush=True)


def median(xs) -> float:
    return float(statistics.median(xs))


def tail(xs) -> tuple[float, float, int]:
    """(value, percentile, samples) of the highest percentile that has at
    least ten samples above it; with ten samples or fewer there is none,
    and the median is given with its percentile, 50."""
    s = sorted(xs)
    n = len(s)
    if n <= 10:
        return median(s), 50.0, n
    return float(s[n - 11]), 100.0 * (n - 10) / n, n


#: The reference loop's time on the host the bounds were tuned on (a
#: 4-core VM whose speed drifts by up to 1.6x within minutes).
REF_NOMINAL_S = 0.004
_REF_ITEMS = 6_000


def ref_loop(_=None) -> float:
    """Seconds of the fixed reference work: building a list of tuples and a
    dict in pure Python, then a sort.  It slows down with the host as the
    codec does: over 10 s windows of a 230 s loop on the 4-core host, the
    window medians of NeaTS decode, access and compress spread by 46/54/34 %
    (IQR / median), 6.7/7.1/3.5 % once divided by this loop's, and still
    16/22/7 % divided by a plain integer arithmetic loop's."""
    t0 = time.perf_counter()
    table, pairs = {}, []
    for i in range(_REF_ITEMS):
        x = (i * 7919) % 1000
        pairs.append((x, i))
        table[i & 1023] = x
    pairs.sort()
    sum(p[0] for p in pairs[::7])
    return time.perf_counter() - t0


class HostClock:
    """Converts measured seconds to reference-host seconds.

    The shared host speeds up and slows down by up to 1.6x over seconds to
    minutes, and every operation of a run moves with it.  So an in-process
    operation is bracketed by the fixed reference work (:func:`ref_loop`) and its
    seconds are scaled by ``REF_NOMINAL_S / (mean of the two loop times)``
    (:meth:`factor`); Spark operations use one factor per run instead
    (``sparkload.run_factor``).  A program change moves the scaled time, a
    host slowdown does not.  The loop times are reported as ``host.ref_ms``.
    """

    def __init__(self) -> None:
        self.refs: list[float] = []

    def probe(self) -> float:
        dt = ref_loop()
        self.refs.append(dt)
        return dt

    def factor(self, before: float) -> float:
        """Probe again after an operation; the scale for its seconds."""
        return REF_NOMINAL_S / ((before + self.probe()) / 2)

    def ref_ms(self) -> float:
        return 1e3 * median(self.refs)


def cpu_times() -> list[int]:
    with open("/proc/stat") as f:
        return [int(v) for v in f.readline().split()[1:]]


def steal_pct(before: list[int], after: list[int]) -> float:
    """Share of CPU time the hypervisor gave to others (``/proc/stat``)."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # user..steal; guest time is already in user
    return 100.0 * delta[7] / total if total > 0 else 0.0


def environment(seed: int, k: int | None) -> dict:
    env = {
        "nproc": os.cpu_count(),
        "spark_k": k,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": seed,
        "block_points": BLOCK,
        "mix": list(MIX),
    }
    if k is not None:
        import pyspark

        env["spark"] = pyspark.__version__
    return env


class Run:
    """Counts verified and failed operations; a wrong answer is a failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
        return ok

    @property
    def ok_pct(self) -> float:
        return 100.0 * (self.attempted - self.failed) / max(self.attempted, 1)


def read_metrics(items: list[dict]) -> dict[str, float]:
    """Read-side metrics of the in-process codec from per-block records.

    Each record holds ``ds``, ``round`` (one block of each dataset per
    round), ``raw`` bytes and the seconds of ``from_bytes``, ``decompress``,
    one ``access`` and one 10-point ``scan`` of that block, plus ``lookup``
    (the whole access batch).  Throughputs divide the bytes of one round of
    the mix by the sum of per-dataset medians; a 10-point range, a full scan
    of one block per dataset and an access batch are the in-process analogues
    of the Spark operations of the ``query`` workload.
    """
    n_ds = len({it["ds"] for it in items})
    rounds: dict[object, list[dict]] = {}
    for it in items:
        rounds.setdefault(it["round"], []).append(it)
    rounds = {r: v for r, v in rounds.items() if len(v) == n_ds}  # complete rounds only
    items = [it for v in rounds.values() for it in v]
    by_ds: dict[str, list[dict]] = {}
    for it in items:
        by_ds.setdefault(it["ds"], []).append(it)

    def mix_sum(fn):  # sum over the mix of the per-dataset medians
        return sum(median([fn(i) for i in v]) for v in by_ds.values())

    raw = sum(v[0]["raw"] for v in by_ds.values())
    full = [sum(i["from_bytes"] + i["decompress"] for i in v) for v in rounds.values()]
    return {
        "decompress_mb_per_s": raw / mix_sum(lambda i: i["from_bytes"] + i["decompress"]) / MB,
        "access_mb_per_s": 8 * len(by_ds) / mix_sum(lambda i: i["access"]) / MB,
        # latencies of one operation: the per-dataset p50s averaged over the mix
        "short_range_p50_ms": 1e3 * mix_sum(lambda i: i["from_bytes"] + i["scan10"]) / len(by_ds),
        "full_scan_p50_ms": 1e3 * median(full),
        "lookup_p50_ms": 1e3 * mix_sum(lambda i: i["from_bytes"] + i["lookup"]) / len(by_ds),
    }
