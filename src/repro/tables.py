"""Per-dataset measurement routines for the Table II / Table III harnesses.

These live inside the installed package (not under ``jobs/``) because the
Spark fan-out pickles the functions by reference — executors import them
from ``repro``, which is on every worker's path, whereas ``jobs/`` is not.
"""
from __future__ import annotations

import numpy as np

from .baselines.aa import AA
from .baselines.pla import PLA
from .core.lossy import NeaTSLossy, mape
from .core.neats import NeaTS
from .harness import ALL_LOSSLESS, measure, median_time
from .tsdata import load

__all__ = ["pick_eps", "table2_run_dataset", "table3_run_dataset"]


def pick_eps(ints: np.ndarray, lossless_bytes: int) -> int:
    """Smallest eps (log grid over the value range) making NeaTS-L smaller
    than lossless NeaTS — the paper's eps-selection protocol (§IV-B)."""
    rng = int(ints.max() - ints.min())
    for frac in np.logspace(-7, -0.5, 18):
        eps = max(1, int(rng * frac))
        if NeaTSLossy.compress(ints, eps).size_bytes < lossless_bytes:
            return eps
    return max(1, int(rng * 0.3))


def table2_run_dataset(name: str, n: int | None) -> list[dict]:
    """AA vs PLA vs NeaTS-L on one dataset at the protocol-selected eps.
    Each compression and reconstruction time is the median of
    ``harness._REPEATS`` runs, as in Table III."""
    ts = load(name, n=n)
    ints = ts.ints
    orig = ts.original_bytes
    lossless = NeaTS.compress(ints, variant="sneats").size_bytes
    eps = pick_eps(ints, lossless)

    mb = orig / 1e6
    r = {"dataset": name, "eps": int(eps), "eps_pct": 100.0 * eps / max(1, ts.value_range)}
    for key, ratio_key, cls in (("aa", "aa", AA), ("pla", "pla", PLA), ("nl", "neats_l", NeaTSLossy)):
        obj, t_comp = median_time(lambda: cls.compress(ints, eps))
        approx, t_dec = median_time(obj.approximate)
        err = float(np.max(np.abs(approx - ints)))
        assert err <= eps + 1e-6, (name, key, err, eps)
        r[ratio_key] = 100.0 * obj.size_bytes / orig
        r[f"mape_{key}"] = mape(ints, approx)
        r[f"comp_{key}"] = mb / t_comp
        r[f"dec_{key}"] = mb / t_dec
    r["impr_aa"] = 100.0 * (r["aa"] - r["neats_l"]) / r["aa"]
    r["impr_pla"] = 100.0 * (r["pla"] - r["neats_l"]) / r["pla"]
    return [r]


def table3_run_dataset(name: str, n: int | None, n_access: int) -> list[dict]:
    """Run the full 13-codec battery on one dataset."""
    ts = load(name, n=n)
    return [measure(codec, ts, n_access=n_access) for codec in ALL_LOSSLESS]
