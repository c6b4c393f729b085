"""Parquet-backed compressed row-group store.

Writes the block DataFrame produced by ``codec.compress_to_blocks`` to
one Parquet file (one NeaTS payload per row, with its ``start_idx``/``n``
metadata and, in ``codec``, the variant that wrote it, ordered by
``start_idx``), and reads it back for range scans (in-block
``NeaTS.scan``) and point lookups (in-block random access, no join), each
one scan of the store and one ``mapInArrow``.  The blocks stay Arrow from
the encoder to the file and back: ``write_store`` collects them with
``toArrow``, and the reads hand them to Python as record batches.  A row
of another codec fails the read.  A JVM DataSourceV2 file format is out
of scope (see DESIGN.md §6); this store keeps the access pattern the
paper's evaluation exercises: per-page decode of the touched pages +
random access.
"""
from __future__ import annotations

import os
import shutil
import tempfile
from urllib.parse import urlparse

import pyarrow.parquet as pq
from pyspark.sql import DataFrame, SparkSession, functions as F

from . import codec as _codec

__all__ = ["write_store", "read_blocks", "scan_range", "point_lookup", "store_size_bytes"]

#: the most Arrow bytes of blocks that ``write_store`` puts in one row group
ROW_GROUP_BYTES = 64 << 20


def write_store(blocks: DataFrame, path: str) -> None:
    """Write ``blocks`` (:data:`codec.BLOCK_SCHEMA` rows) to the local
    directory ``path`` as one Parquet file ordered by ``start_idx``.

    The rows are collected to the driver as Arrow (``toArrow``), so the
    driver holds every payload at once: about a quarter of the raw series'
    bytes.  The file is written by ``pyarrow.parquet`` into a hidden
    directory ``.<name>-...`` beside ``path``, which then takes the place of
    the old store, so a write that fails leaves the old store as it was:
    when the new store cannot be moved to ``path``, the old one is moved
    back.
    A path with a scheme other than ``file:`` raises ``ValueError`` before
    any job.

    Layout: no compression (the payloads are already NeaTS-compressed,
    and double compression would muddy the size accounting); min/max
    statistics on every column but ``payload``; dictionary encoding on
    ``payload``, ``codec`` and ``n``, so repeated payloads are stored
    once, while ``block_id`` and ``start_idx`` stay plain; row groups of
    at most :data:`ROW_GROUP_BYTES` of Arrow data.
    """
    url = urlparse(path)
    if url.scheme not in ("", "file"):
        raise ValueError(f"{path}: the store is written to a local path, not {url.scheme}:")
    table = blocks.toArrow().sort_by("start_idx")
    target = os.path.abspath(url.path if url.scheme else path)
    parent, name = os.path.split(target)
    os.makedirs(parent, exist_ok=True)
    stage = tempfile.mkdtemp(prefix=f".{name}-", dir=parent)
    new, old = os.path.join(stage, "new"), os.path.join(stage, "old")
    try:
        os.mkdir(new)
        pq.write_table(
            table, os.path.join(new, "part-0.parquet"),
            row_group_size=max(1, ROW_GROUP_BYTES * table.num_rows // max(table.nbytes, 1)),
            compression="none", store_schema=False,
            use_dictionary=["payload", "codec", "n"],
            write_statistics=["block_id", "start_idx", "n", "codec"],
        )
        if os.path.lexists(target):
            os.rename(target, old)
        try:
            os.rename(new, target)
        except BaseException:
            if os.path.lexists(old):
                os.rename(old, target)
            raise
    finally:
        # Keep ``stage`` only if it holds the sole copy of the old store.
        if os.path.lexists(target) or not os.path.lexists(old):
            shutil.rmtree(stage)


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
