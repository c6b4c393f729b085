"""Parquet-backed compressed row-group store.

Writes the block DataFrame produced by ``codec.compress_to_blocks`` to
Parquet (one NeaTS payload per row, with ``start_idx``/``n`` metadata
columns whose row-group statistics the reader can use), and reads it back
for range scans (a pushed bound on ``start_idx``, then in-block
``NeaTS.scan``) and point lookups (in-block random access, no join).  A JVM
DataSourceV2 file format is out of scope in this container (see DESIGN.md
§6); this store keeps the access pattern the paper's evaluation
exercises: per-page decode of the touched pages + random access.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession, functions as F

from . import codec as _codec

__all__ = ["write_store", "read_blocks", "scan_range", "point_lookup", "store_size_bytes"]


def write_store(blocks: DataFrame, path: str) -> None:
    # Parquet compression off: the payloads are already NeaTS-compressed and
    # double compression would muddy the size accounting.
    blocks.write.mode("overwrite").option("compression", "none").parquet(path)


def read_blocks(spark: SparkSession, path: str) -> DataFrame:
    # The schema is known: inferring it would read the file footers on every
    # call.  Partition columns (``op=0/``...) are still discovered.
    return spark.read.schema(_codec.BLOCK_SCHEMA).parquet(path)


def scan_range(spark: SparkSession, path: str, lo: int, hi: int) -> DataFrame:
    """Range query ``[lo, hi)`` over the store.  ``range_query``'s one
    filter, ``start_idx < bound`` with ``bound`` the smallest power of two
    at or above ``hi``, sits directly on the file relation, so Spark pushes
    it to the Parquet reader, which skips the row groups whose smallest
    ``start_idx`` is at or past ``bound``; the executor trims the blocks it
    reads to ``[lo, hi)``.  How much the bound prunes depends on how the
    store was written: ``compress_to_blocks`` hash-partitions its blocks,
    so a row group of its output spans most of the index range."""
    return _codec.range_query(read_blocks(spark, path), lo, hi)


def point_lookup(spark: SparkSession, path: str, keys: DataFrame, *, block_size: int | None = None) -> DataFrame:
    """``codec.random_access`` over the store; ``block_size`` is not read."""
    return _codec.random_access(read_blocks(spark, path), keys)


def store_size_bytes(blocks: DataFrame) -> int:
    """Total compressed payload bytes across blocks (driver-side sum)."""
    return blocks.select(F.sum(F.length("payload")).alias("s")).collect()[0]["s"]
