"""Synthetic stand-ins for the paper's 16 real-world time series.

The originals (NEON sensors, INFORE stock ticks, PhysioNet ECG, Geolife
GPS, Meteoblue weather, InfluxDB samples) are not available offline, so
each generator reproduces the *character* that drives the compressors'
behaviour: local trend shape (linear / exponential-ish / quadratic-ish /
radical segments), noise amplitude relative to the quantisation step, the
fractional-digit count from Section IV-A1, and the value range.  Sizes are
scaled down (paper: 7K–477M points; here: ~2K for tests, ~8K–40K for
benchmarks) — see DESIGN.md §3 for why this preserves the evaluation's
shape.

Every dataset is deterministic in its seed.  ``TimeSeries`` exposes both
the float values (for double-oriented codecs: Gorilla/Chimp/TSXor/ALP) and
the fixed-precision int64 values (``round(v * 10^decimals)``) used by
NeaTS/DAC/LeCo and the general-purpose codecs, exactly as the paper's
pipeline prescribes.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

__all__ = ["TimeSeries", "DATASETS", "load", "load_all"]


@dataclass(frozen=True)
class TimeSeries:
    name: str
    floats: np.ndarray  # float64 values
    ints: np.ndarray    # int64 fixed-precision values
    decimals: int

    @property
    def n(self) -> int:
        return len(self.ints)

    @property
    def original_bytes(self) -> int:
        """The uncompressed footprint: 8 bytes per 64-bit value."""
        return 8 * self.n

    @property
    def value_range(self) -> int:
        return int(self.ints.max() - self.ints.min())


def _quantise(name: str, vals: np.ndarray, decimals: int) -> TimeSeries:
    scale = 10.0 ** decimals
    ints = np.round(vals * scale).astype(np.int64)
    floats = ints / scale  # fixed-precision doubles, like the textual sources
    return TimeSeries(name, floats, ints, decimals)


def _ou(rng, n, theta, sigma, x0=0.0):
    """Ornstein-Uhlenbeck path — mean-reverting noise used by several series."""
    x = np.empty(n)
    x[0] = x0
    for i in range(1, n):
        x[i] = x[i - 1] * (1 - theta) + rng.normal(0, sigma)
    return x


def _gbm(rng, n, s0, mu, sigma):
    steps = rng.normal(mu, sigma, n)
    return s0 * np.exp(np.cumsum(steps))


# -- one generator per paper dataset -----------------------------------------

def _it(rng, n):  # IR-bio-temp: daily sinusoid + slow trend + small sensor noise
    t = np.arange(n)
    day = 20 + 8 * np.sin(2 * np.pi * t / 480) + 2 * np.sin(2 * np.pi * t / 97)
    trend = 3 * np.sin(2 * np.pi * t / (n / 2.3))
    return day + trend + _ou(rng, n, 0.2, 0.08)


def _stock(rng, n, s0, sigma):
    return _gbm(rng, n, s0, 0.0, sigma)


def _ecg(rng, n):  # periodic beat template: P-QRS-T as Gaussian bumps
    beat_len = 160
    t = np.arange(beat_len)
    tmpl = (
        0.12 * np.exp(-((t - 30) ** 2) / 40)
        - 0.25 * np.exp(-((t - 62) ** 2) / 6)
        + 1.1 * np.exp(-((t - 70) ** 2) / 10)
        - 0.2 * np.exp(-((t - 78) ** 2) / 8)
        + 0.3 * np.exp(-((t - 115) ** 2) / 160)
    )
    reps = n // beat_len + 2
    sig = np.tile(tmpl, reps)[:n]
    drift = 0.1 * np.sin(2 * np.pi * np.arange(n) / 700)
    return sig + drift + rng.normal(0, 0.02, n)


def _wd(rng, n):  # wind direction in degrees with regime jumps
    base = _ou(rng, n, 0.02, 4.0, 180.0) + 180.0
    jumps = np.cumsum(rng.choice([0, 0, 0, 0, 1], n) * rng.normal(0, 40, n))
    return np.mod(base + jumps, 360.0)


def _ap(rng, n):  # barometric pressure: very smooth slow walk
    return 1013.0 + np.cumsum(rng.normal(0, 0.003, n)) + 3 * np.sin(2 * np.pi * np.arange(n) / 900)


def _gps(rng, n, base):  # piecewise-smooth movement with constant stops
    out = np.empty(n)
    pos = base
    i = 0
    first = True
    while i < n:
        seg = int(rng.integers(50, 400))
        seg = min(seg, n - i)
        if not first and rng.random() < 0.35:  # stop: constant
            out[i:i + seg] = pos
        else:  # move: smooth ramp with curvature
            v = rng.normal(0, 2e-4)
            a = rng.normal(0, 1e-6)
            t = np.arange(seg)
            out[i:i + seg] = pos + v * t + a * t * t + rng.normal(0, 5e-6, seg)
            pos = out[i + seg - 1]
        first = False
        i += seg
    return out


def _dp(rng, n):  # dew point: smooth seasonal + noise
    t = np.arange(n)
    return 8 + 6 * np.sin(2 * np.pi * t / 2000) + _ou(rng, n, 0.05, 0.15)


def _ct(rng, n):  # city temperatures: seasonal + weather noise, 1 decimal
    t = np.arange(n)
    return 15 + 12 * np.sin(2 * np.pi * t / 365.0) + _ou(rng, n, 0.15, 1.2)


def _du(rng, n):  # PM10: bursty lognormal
    base = np.exp(_ou(rng, n, 0.03, 0.12, np.log(20)))
    spikes = (rng.random(n) < 0.01) * rng.lognormal(3.0, 0.8, n)
    return base + spikes


def _bt(rng, n):  # Basel temperature, 9 fractional digits
    t = np.arange(n)
    return 11 + 9 * np.sin(2 * np.pi * t / (n / 4)) + _ou(rng, n, 0.08, 0.5)


def _bw(rng, n):  # Basel wind speed, 7 fractional digits
    return np.abs(_ou(rng, n, 0.05, 0.8, 4.0)) + 0.3


def _bm(rng, n):  # bird migration positions: smooth legs + relocations
    return _gps(rng, n, 48.0) * 1.0 + np.linspace(0, 3.0, n)


def _bp(rng, n):  # bitcoin price: high volatility GBM
    return _gbm(rng, n, 30000.0, 0.0, 0.004)


# name -> (generator, decimals, default bench n)
_SPECS = {
    "IT": (_it, 2, 32768),
    "US": (lambda r, n: _stock(r, n, 120.0, 0.0008), 2, 32768),
    "ECG": (_ecg, 3, 32768),
    "WD": (_wd, 2, 32768),
    "AP": (_ap, 5, 32768),
    "UK": (lambda r, n: _stock(r, n, 55.0, 0.0007), 1, 24576),
    "GE": (lambda r, n: _stock(r, n, 80.0, 0.0010), 3, 24576),
    "LAT": (lambda r, n: _gps(r, n, 39.9), 4, 16384),
    "LON": (lambda r, n: _gps(r, n, 116.3), 4, 16384),
    "DP": (_dp, 3, 16384),
    "CT": (_ct, 1, 12288),
    "DU": (_du, 3, 8192),
    "BT": (_bt, 9, 8192),
    "BW": (_bw, 7, 8192),
    "BM": (_bm, 5, 4096),
    "BP": (_bp, 4, 2048),
}

DATASETS = list(_SPECS)


def load(name: str, *, n: int | None = None, seed: int = 42) -> TimeSeries:
    """Generate one dataset; ``n=None`` uses the benchmark-scale default."""
    gen, decimals, default_n = _SPECS[name]
    n = default_n if n is None else int(n)
    # stable per-dataset seed (Python's hash() is salted per process)
    rng = np.random.default_rng(seed + zlib.crc32(name.encode()) % 1000)
    vals = gen(rng, n)
    return _quantise(name, np.asarray(vals, dtype=np.float64), decimals)


def load_all(*, n: int | None = None, seed: int = 42) -> dict[str, TimeSeries]:
    return {name: load(name, n=n, seed=seed) for name in DATASETS}
