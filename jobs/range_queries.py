"""Figure 4 harness (numeric claims): range-query throughput of the best
random-access/decompression codecs — ALP, DAC, Lz4 (block-wise) and NeaTS
— across range sizes 10*2^0 .. 10*2^k.

The paper's claim: DAC is fastest below ~40 points, NeaTS above, both an
order of magnitude beyond the block-decompression codecs at small ranges.
(``jobs/spark_store.py`` runs range queries on the Spark row-group store.)

Each (range, codec, dataset) batch of queries is timed by
``harness.median_time`` (median of ``harness._REPEATS`` runs), as in
Tables II and III, and its last answer is checked against the input.

Run:  python jobs/range_queries.py [--n 16384] [--queries 200]
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.harness import CODECS, FIG4, input_of, median_time
from repro.runner import dump_json
from repro.tsdata import load

#: the largest datasets, as in the paper ("averaged over the 11 largest")
RANGE_DATASETS = ["IT", "US", "ECG", "WD", "AP"]


def build_artifacts(ts):
    arts = {}
    for label, name in FIG4.items():
        domain, build = CODECS[name]
        arts[label] = build(input_of(ts, domain))
    return arts


def run(*, n: int | None = None, n_queries: int = 200, max_k: int = 9, seed: int = 0) -> list[dict]:
    rows = []
    rng = np.random.default_rng(seed)
    arts = {}
    sizes = [10 * 2 ** k for k in range(max_k)]
    for ds in RANGE_DATASETS:
        ts = load(ds, n=n)
        arts[ds] = (ts, build_artifacts(ts))
    for size in sizes:
        for name, table_name in FIG4.items():
            domain = CODECS[table_name][0]
            total_t, total_q = 0.0, 0
            for ds, (ts, art) in arts.items():
                if size >= ts.n:
                    continue
                starts = rng.integers(0, ts.n - size, n_queries)

                def batch():
                    for s in starts:
                        out = art[name].scan(int(s), int(s) + size)
                    return out

                last, t = median_time(batch)
                s = int(starts[-1])
                if not np.array_equal(last, input_of(ts, domain)[s:s + size]):
                    raise AssertionError(f"{name} scan wrong on {ds}@[{s}, {s + size})")
                total_t += t
                total_q += n_queries
            if total_q:
                rows.append({"range": size, "codec": name, "qps": total_q / total_t})
    return rows


def print_table(rows: list[dict]) -> None:
    sizes = sorted({r["range"] for r in rows})
    codecs = list(FIG4)
    print(f"{'range':>7s} " + " ".join(f"{c:>10s}" for c in codecs) + "   (queries/s)")
    for s in sizes:
        vals = {r["codec"]: r["qps"] for r in rows if r["range"] == s}
        print(f"{s:7d} " + " ".join(f"{vals.get(c, float('nan')):10.0f}" for c in codecs))


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=None)
    ap.add_argument("--queries", type=int, default=200)
    args = ap.parse_args(argv)
    rows = run(n=args.n, n_queries=args.queries)
    print_table(rows)
    dump_json("range_queries.json", rows)


if __name__ == "__main__":
    main(sys.argv[1:])
