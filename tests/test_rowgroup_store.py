"""Parquet-backed row-group store: persistence, range scans, point lookups."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent
from repro.sparkio.codec import compress_to_blocks
from repro.sparkio.rowgroup_store import (
    point_lookup, read_blocks, scan_range, store_size_bytes, write_store,
)
from repro.tsdata import load

N = 2500
BLOCK = 512


@pytest.fixture(scope="module")
def series():
    return load("WD", n=N, seed=11)


@pytest.fixture(scope="module")
def store_path(spark, series, tmp_path_factory):
    pdf = pd.DataFrame({"idx": np.arange(N), "y": series.ints})
    df = spark.createDataFrame(pdf)
    blocks = compress_to_blocks(df, codec="neats", block_size=BLOCK)
    path = str(tmp_path_factory.mktemp("store") / "wd.parquet")
    write_store(blocks, path)
    return path


class TestStore:
    def test_read_back_block_metadata(self, spark, store_path):
        blocks = read_blocks(spark, store_path)
        rows = blocks.orderBy("block_id").collect()
        assert len(rows) == (N + BLOCK - 1) // BLOCK
        assert sum(r["n"] for r in rows) == N

    def test_store_is_compressed(self, spark, store_path, series):
        blocks = read_blocks(spark, store_path)
        assert store_size_bytes(blocks) < series.original_bytes

    def test_scan_range_oracle(self, spark, store_path, series):
        got = scan_range(spark, store_path, 300, 1800)
        pdf = pd.DataFrame({"idx": np.arange(N), "y": series.ints})
        assert_equivalent(
            got, "SELECT idx, y FROM original WHERE idx >= 300 AND idx < 1800",
            original=pdf,
        )

    def test_scan_range_aggregate_oracle(self, spark, store_path, series):
        got = scan_range(spark, store_path, 100, 2400).agg(
            F.avg("y").alias("avg_y"), F.count("y").alias("cnt")
        )
        pdf = pd.DataFrame({"idx": np.arange(N), "y": series.ints})
        assert_equivalent(
            got,
            "SELECT avg(y) AS avg_y, count(y) AS cnt FROM original "
            "WHERE idx >= 100 AND idx < 2400",
            original=pdf,
        )

    def test_point_lookup_oracle(self, spark, store_path, series):
        keys = [0, 511, 512, 1024, 2499]
        keys_df = spark.createDataFrame(pd.DataFrame({"idx": keys}))
        got = point_lookup(spark, store_path, keys_df)
        pdf = pd.DataFrame({"idx": np.arange(N), "y": series.ints})
        assert_equivalent(
            got,
            f"SELECT idx, y FROM original WHERE idx IN ({','.join(map(str, keys))})",
            original=pdf,
        )

    def test_empty_range(self, spark, store_path):
        assert scan_range(spark, store_path, 1000, 1000).count() == 0
