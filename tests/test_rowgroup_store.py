"""Parquet-backed row-group store: persistence, range scans, point lookups,
and the layout and atomicity of its writes."""
import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest
from pyspark.errors import PythonException
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent
from repro.sparkio.codec import compress_to_blocks, decompress_blocks
from repro.sparkio import rowgroup_store
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


def _hidden(path):
    """Entries beside ``path`` that a write left behind (its staging directories)."""
    parent = os.path.dirname(path)
    return [f for f in os.listdir(parent) if f.startswith(".")]


class TestWrite:
    def test_failed_write_keeps_old_store(self, spark, series, tmp_path):
        """A write whose job fails in the executor leaves the store that was
        at ``path`` readable, with its old rows."""
        path = str(tmp_path / "store")
        df = spark.createDataFrame(pd.DataFrame({"idx": np.arange(N), "y": series.ints}))
        write_store(compress_to_blocks(df, block_size=BLOCK), path)
        old = sorted(read_blocks(spark, path).collect())
        gap = spark.createDataFrame(pd.DataFrame({"idx": [0, 2, 4, 6], "y": [10, 20, 30, 40]}))
        with pytest.raises(PythonException, match="ValueError: block 0: its idx values are not consecutive"):
            write_store(compress_to_blocks(gap, block_size=4), path)
        assert sorted(read_blocks(spark, path).collect()) == old
        assert _hidden(path) == []

    def test_failed_swap_restores_old_store(self, spark, store_path, tmp_path, monkeypatch):
        """When the new store cannot be moved to ``path`` after the old one
        was moved aside, the old one is moved back with its rows."""
        path = str(tmp_path / "store")
        df = spark.createDataFrame(pd.DataFrame({"idx": np.arange(4), "y": [1, 2, 3, 4]}))
        write_store(compress_to_blocks(df, block_size=2), path)
        old = sorted(read_blocks(spark, path).collect())
        rename = os.rename

        def failing_rename(src, dst):
            if os.path.basename(src) == "new":
                raise OSError("rename refused")
            rename(src, dst)

        monkeypatch.setattr(os, "rename", failing_rename)
        with pytest.raises(OSError, match="rename refused"):
            write_store(read_blocks(spark, store_path), path)
        monkeypatch.undo()
        assert sorted(read_blocks(spark, path).collect()) == old
        assert _hidden(path) == []

    def test_rewrite_replaces_store(self, spark, tmp_path):
        path = str(tmp_path / "store")
        for values in ([1, 2, 3], [7, 8]):
            df = spark.createDataFrame(pd.DataFrame({"idx": np.arange(len(values)), "y": values}))
            write_store(compress_to_blocks(df, block_size=2), "file://" + path)
            got = decompress_blocks(read_blocks(spark, path)).orderBy("idx").collect()
            assert [r["y"] for r in got] == values
        assert os.listdir(path) == ["part-0.parquet"] and _hidden(path) == []

    def test_non_local_path_raises_before_any_job(self, spark, store_path):
        sc = spark.sparkContext
        sc.setJobGroup("hdfs-store", "a write to a non-local path")
        try:
            with pytest.raises(ValueError, match="hdfs"):
                write_store(read_blocks(spark, store_path), "hdfs://localhost/stores/wd")
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert sc.statusTracker().getJobIdsForGroup("hdfs-store") == []

    def test_repeated_payloads_layout(self, spark, store_path, tmp_path):
        """R copies of B distinct payloads, as perfbench's ``query`` store:
        ``payload`` is dictionary-encoded with no min/max statistics, so the
        store takes less disk than R copies of the payloads; the metadata
        columns keep their statistics."""
        copies = 8
        base = read_blocks(spark, store_path)
        n_base, payload_bytes = base.selectExpr("count(*)", "sum(length(payload))").first()
        reps = spark.range(copies).withColumnRenamed("id", "r")
        path = str(tmp_path / "replicated")
        write_store(base.crossJoin(reps).select(
            (F.col("block_id") + F.col("r") * n_base).alias("block_id"),
            (F.col("start_idx") + F.col("r") * N).alias("start_idx"),
            "n", "codec", "payload"), path)
        meta = pq.ParquetFile(os.path.join(path, "part-0.parquet")).metadata
        assert meta.num_rows == copies * n_base
        for g in range(meta.num_row_groups):
            cols = {meta.schema.column(c).name: meta.row_group(g).column(c) for c in range(meta.num_columns)}
            assert cols["payload"].has_dictionary_page
            assert cols["payload"].statistics is None or not cols["payload"].statistics.has_min_max
            for name in ("block_id", "start_idx"):
                assert not cols[name].has_dictionary_page and cols[name].statistics.has_min_max
        assert os.path.getsize(os.path.join(path, "part-0.parquet")) < copies * payload_bytes

    def test_row_groups_hold_at_most_row_group_bytes(self, spark, store_path, tmp_path, monkeypatch):
        """Row groups hold at most ``ROW_GROUP_BYTES`` of Arrow data, and
        their ``start_idx`` ranges ascend without overlap."""
        blocks = read_blocks(spark, store_path)
        n_blocks = blocks.count()
        path = str(tmp_path / "small-groups")
        monkeypatch.setattr(rowgroup_store, "ROW_GROUP_BYTES", 1)
        write_store(blocks, path)
        meta = pq.ParquetFile(os.path.join(path, "part-0.parquet")).metadata
        assert meta.num_row_groups == n_blocks
        col = meta.schema.names.index("start_idx")
        starts = [meta.row_group(g).column(col).statistics for g in range(n_blocks)]
        assert all(a.max < b.min for a, b in zip(starts, starts[1:]))
        assert sorted(read_blocks(spark, path).collect()) == sorted(blocks.collect())
