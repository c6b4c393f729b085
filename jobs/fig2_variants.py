"""Fig. 2 as data: compression speed and ratio of the three NeaTS variants
(NeaTS, LeaTS, SNeaTS; Section IV-C1) on the 16 datasets, at two block
sizes.

Each dataset contributes its first ``--blocks`` blocks; every block is
compressed in process (no Spark) by each variant, timed as the median of
``harness._REPEATS`` runs, as in Tables II and III.  Writes
``results/fig2.json``: one row per (dataset, block size, variant) and one
summary row per (block size, variant) with the mean ratio over the datasets
and the speed over all of their bytes, relative to NeaTS.

Run:  python jobs/fig2_variants.py [--blocks 4] [--sizes 1024 4096]
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.core.neats import VARIANTS, NeaTS
from repro.harness import median_time
from repro.runner import dump_json
from repro.tsdata import DATASETS, load

MB = 1e6


def run(*, datasets=DATASETS, sizes=(1024, 4096), blocks: int = 4) -> dict:
    rows = []
    for ds in datasets:
        ints = load(ds, n=blocks * max(sizes)).ints
        for size in sizes:
            for variant in VARIANTS:
                seconds, nbytes = 0.0, 0
                for b in range(blocks):
                    block = ints[b * size:(b + 1) * size]
                    payload, t = median_time(lambda: NeaTS.compress(block, variant=variant).to_bytes())
                    seconds += t
                    nbytes += len(payload)
                rows.append({"dataset": ds, "block": size, "variant": variant, "seconds": seconds,
                             "ratio_pct": 100.0 * nbytes / (8 * blocks * size),
                             "mb_per_s": 8 * blocks * size / seconds / MB})
    summary = []
    for size in sizes:
        mine = [r for r in rows if r["block"] == size]
        total = {v: sum(r["seconds"] for r in mine if r["variant"] == v) for v in VARIANTS}
        for v in VARIANTS:
            ratios = [r["ratio_pct"] for r in mine if r["variant"] == v]
            summary.append({"block": size, "variant": v, "ratio_pct": float(np.mean(ratios)),
                            "mb_per_s": 8 * blocks * size * len(ratios) / total[v] / MB,
                            "speedup_vs_neats": total["neats"] / total[v]})
    return {"blocks_per_dataset": blocks, "rows": rows, "summary": summary}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--blocks", type=int, default=4)
    ap.add_argument("--sizes", type=int, nargs="+", default=[1024, 4096])
    args = ap.parse_args(argv)
    out = run(sizes=tuple(args.sizes), blocks=args.blocks)
    print(f"{'block':>6s} {'variant':>8s} {'ratio %':>8s} {'MB/s':>7s} {'vs NeaTS':>9s}")
    for s in out["summary"]:
        print(f"{s['block']:>6d} {s['variant']:>8s} {s['ratio_pct']:>8.2f} {s['mb_per_s']:>7.2f} "
              f"{s['speedup_vs_neats']:>8.2f}x")
    print(f"wrote {dump_json('fig2.json', out)}")


if __name__ == "__main__":
    main(sys.argv[1:])
