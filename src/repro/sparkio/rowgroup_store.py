"""Parquet-backed compressed row-group store.

Writes the block DataFrame produced by ``codec.compress_to_blocks`` to
Parquet (one NeaTS payload per row, with its ``start_idx``/``n``
metadata and, in ``codec``, the variant that wrote it), and reads it back
for range scans (in-block ``NeaTS.scan``) and point lookups (in-block
random access, no join), each one scan of the store and one
``mapInPandas``.  A row of another codec fails the read.  A JVM
DataSourceV2 file format is out of scope (see DESIGN.md §6); this store
keeps the access pattern the paper's evaluation exercises: per-page
decode of the touched pages + random access.
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
    """``codec.range_query`` over the store: every row group is read and
    each block selects its part of ``[lo, hi)`` in the executor."""
    return _codec.range_query(read_blocks(spark, path), lo, hi)


def point_lookup(spark: SparkSession, path: str, keys: DataFrame, *, block_size: int | None = None) -> DataFrame:
    """``codec.random_access`` over the store; ``block_size`` is not read."""
    return _codec.random_access(read_blocks(spark, path), keys)


def store_size_bytes(blocks: DataFrame) -> int:
    """Total compressed payload bytes across blocks (driver-side sum)."""
    return blocks.select(F.sum(F.length("payload")).alias("s")).collect()[0]["s"]
