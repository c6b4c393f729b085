"""Spark row-group store demo: compress a dataset into NeaTS-encoded
Parquet blocks, then answer point lookups and range queries through the
store — the columnar-page-encoding deployment of NeaTS from DESIGN.md §6.

Run:  python jobs/spark_store.py [--dataset IT] [--n 32768] [--block 4096]
"""
from __future__ import annotations

import argparse
import sys
import tempfile
import time

import numpy as np
import pandas as pd
from pyspark.sql import functions as F

from repro.runner import get_spark
from repro.sparkio.codec import compress_to_blocks
from repro.sparkio.rowgroup_store import (
    point_lookup, read_blocks, scan_range, store_size_bytes, write_store,
)
from repro.tsdata import load


def run(spark, *, dataset: str = "IT", n: int | None = None, block: int = 4096) -> dict:
    ts = load(dataset, n=n)
    pdf = pd.DataFrame({"idx": np.arange(ts.n), "y": ts.ints})
    df = spark.createDataFrame(pdf)

    t0 = time.perf_counter()
    blocks = compress_to_blocks(df, codec="neats", block_size=block)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/{dataset}.parquet"
        write_store(blocks, path)
        t_write = time.perf_counter() - t0
        stored = read_blocks(spark, path)
        size = store_size_bytes(stored)

        lo, hi = ts.n // 4, ts.n // 2
        t0 = time.perf_counter()
        agg = scan_range(spark, path, lo, hi).agg(
            F.avg("y").alias("avg_y"), F.count("y").alias("cnt")
        ).collect()[0]
        t_range = time.perf_counter() - t0
        expect = float(ts.ints[lo:hi].mean())
        assert abs(agg["avg_y"] - expect) < 1e-6 and agg["cnt"] == hi - lo

        rng = np.random.default_rng(0)
        keys = rng.choice(ts.n, 64, replace=False)
        keys_df = spark.createDataFrame(pd.DataFrame({"idx": keys}))
        t0 = time.perf_counter()
        pts = {r["idx"]: r["y"] for r in point_lookup(spark, path, keys_df).collect()}
        t_point = time.perf_counter() - t0
        assert all(pts[k] == ts.ints[k] for k in keys)

    return {
        "dataset": dataset,
        "n": ts.n,
        "ratio_pct": 100.0 * size / ts.original_bytes,
        "write_s": t_write,
        "range_query_s": t_range,
        "point_lookup_s": t_point,
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--dataset", default="IT")
    ap.add_argument("--n", type=int, default=None)
    ap.add_argument("--block", type=int, default=4096)
    args = ap.parse_args(argv)
    spark = get_spark("spark-store-demo")
    out = run(spark, dataset=args.dataset, n=args.n, block=args.block)
    for k, v in out.items():
        print(f"{k:>14s}: {v:.4f}" if isinstance(v, float) else f"{k:>14s}: {v}")
    spark.stop()


if __name__ == "__main__":
    main(sys.argv[1:])
