"""Per-partition NeaTS block codec for Spark DataFrames.

The repro target treats NeaTS as a page encoding for columnar storage:
a time series DataFrame ``(idx, y)`` is split into fixed-size blocks (the
"row groups"), each block is compressed *inside the executors* with
``applyInArrow``, and the result is a small DataFrame of binary payload
rows that can be written to Parquet (see ``rowgroup_store``).  Every read
is one ``mapInArrow`` pass in which each block decodes only the queried
positions it holds, with NeaTS's in-block random access (Algorithm 3) or
range scan (Section IV-C4).  Blocks cross Spark's Python boundary as Arrow
tables and record batches only.

Every payload is a NeaTS serialisation.  A row's ``codec`` names the
variant that wrote it (``neats`` / ``leats`` / ``sneats``, Section IV-C1),
and all three read the same way.  The general-purpose and XOR codecs get
their 1000-value blocks from ``baselines/blockstore.py``, for Table III.
"""
from __future__ import annotations

import operator
from functools import partial
from typing import Iterator

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame, functions as F
from pyspark.sql.types import (
    BinaryType, IntegralType, LongType, StringType, StructField, StructType,
)

from ..core.neats import VARIANTS, CorruptPayloadError, NeaTS
from ..core.partition import OutOfDomainError

__all__ = ["compress_to_blocks", "decompress_blocks", "random_access", "range_query", "BLOCK_SCHEMA"]

BLOCK_SCHEMA = StructType([
    StructField("block_id", LongType(), False),
    StructField("start_idx", LongType(), False),
    StructField("n", LongType(), False),
    StructField("codec", StringType(), False),
    StructField("payload", BinaryType(), False),
])


def encode_block(values: np.ndarray, codec: str) -> bytes:
    """The payload of one block: ``values`` compressed by the NeaTS variant
    ``codec``.  Raises ``ValueError`` for another ``codec`` and
    :class:`OutOfDomainError` for values that do not cast to int64 safely
    (floats, uint64)."""
    return NeaTS.compress(values, variant=codec).to_bytes()


def decode_block(payload: bytes, codec: str, n: int) -> np.ndarray:
    return _read(payload, codec, n, slice(0, n))


def _read(payload: bytes, codec: str, n: int, part) -> np.ndarray:
    """Positions ``part`` (a slice or an array of offsets) of one block of
    ``n`` values, decoded by ``NeaTS.scan`` (Section IV-C4) or Algorithm 3
    (``NeaTS.access_many``).  A row whose ``codec`` is not a NeaTS variant,
    or whose payload holds other than ``n`` values, raises
    :class:`CorruptPayloadError`."""
    if codec not in VARIANTS:
        raise CorruptPayloadError(f"a {codec!r} row: the store holds NeaTS payloads ({', '.join(VARIANTS)})")
    view = NeaTS.from_bytes(payload)
    if view.n != n:
        raise CorruptPayloadError(f"the row says {n} values, its {codec} payload holds {view.n}")
    if isinstance(part, slice):
        return view.scan(part.start, part.stop)
    return view.access_many(part)


def compress_to_blocks(
    df: DataFrame,
    *,
    codec: str = "neats",
    block_size: int = 4096,
) -> DataFrame:
    """Compress ``(idx, y)`` rows into per-block binary payloads.

    Row ``idx`` goes to block ``idx DIV block_size`` (integer division,
    truncating toward zero).  The groupBy shuffles rows to the executor
    owning each block, which then runs the NeaTS encoder on its sorted
    values — the per-partition custom encoder pattern.  A block is read
    back as ``start_idx + arange(n)``, so in the executor a block whose
    ``idx`` values are not consecutive (a gap or a duplicate) raises
    ``ValueError`` naming the block, and a block with a null ``idx`` or
    ``y`` raises ``ValueError`` naming the column and the block (rows with
    a null ``idx`` form block ``None``).  On the driver, before any job: a
    ``codec`` that is not a NeaTS variant or a ``block_size`` below 1
    raises ``ValueError``, a ``block_size`` that is not an integer (a float)
    raises ``TypeError``, and an ``idx`` or ``y`` column of other than an
    integral type raises :class:`OutOfDomainError` (the cast to long would
    truncate it).
    """
    if codec not in VARIANTS:
        raise ValueError(f"unknown codec {codec!r}: one of {', '.join(VARIANTS)}")
    block_size = operator.index(block_size)
    if block_size < 1:
        raise ValueError(f"block_size {block_size}: a block holds at least 1 value")
    _require_integral(df, "idx", "y")
    src = df.selectExpr("CAST(idx AS BIGINT) AS idx", "CAST(y AS BIGINT) AS y",
                        f"CAST(idx AS BIGINT) DIV {block_size} AS block_id")
    return src.groupBy("block_id").applyInArrow(partial(_encode, codec), schema=BLOCK_SCHEMA)


def _require_integral(df: DataFrame, *names: str) -> None:
    """Raise :class:`OutOfDomainError` for a column of ``df`` named in
    ``names`` whose type is not integral: the cast to long would truncate it."""
    for name in names:
        kind = df.schema[name].dataType
        if not isinstance(kind, IntegralType):
            raise OutOfDomainError(f"column {name} is {kind.simpleString()}, not an integral type")


def _encode(codec, table):
    """One block's row of :data:`BLOCK_SCHEMA`, from the Arrow table of its
    ``(idx, y, block_id)`` rows in any order.  Not annotated:
    ``applyInArrow`` would read the hints with ``typing.get_type_hints``,
    which refuses a ``partial``, and warn."""
    bid = table["block_id"][0].as_py()
    for name in ("idx", "y"):
        if nulls := table[name].null_count:
            raise ValueError(f"block {bid}: column {name} holds {nulls} null value(s)")
    table = table.sort_by("idx")
    idx, vals = table["idx"].to_numpy(), table["y"].to_numpy()
    if not np.array_equal(idx, np.arange(idx[0], idx[0] + len(idx))):
        raise ValueError(f"block {bid}: its idx values are not consecutive from {idx[0]}")
    return pa.table({"block_id": [bid], "start_idx": [int(idx[0])], "n": [len(vals)],
                     "codec": [codec], "payload": [encode_block(vals, codec)]})


_DECODED_SCHEMA = StructType([
    StructField("idx", LongType(), False),
    StructField("y", LongType(), False),
])


def decompress_blocks(blocks: DataFrame) -> DataFrame:
    """Inverse of :func:`compress_to_blocks`: back to ``(idx, y)`` rows,
    every position of every block."""
    return _select(blocks, _pick_all)


def random_access(blocks: DataFrame, keys: DataFrame) -> DataFrame:
    """Batch random access: one ``(idx, y)`` row per key of ``keys.idx`` that
    a block holds (duplicates repeat, nulls match nothing).  The keys are
    collected on the driver, so a batch is meant to be a few dozen keys; each
    block answers those inside its own extent with one batched Algorithm 3
    call (``NeaTS.access_many``): no join, no shuffle, no block size to know.
    A ``keys.idx`` of other than an integral type raises
    :class:`OutOfDomainError` on the driver, before any job."""
    _require_integral(keys, "idx")
    rows = keys.select(F.col("idx").cast("long").alias("idx")).dropna().collect()
    ks = np.sort(np.array([r[0] for r in rows], dtype=np.int64))
    return _select(blocks, partial(_pick_keys, ks))


def range_query(blocks: DataFrame, lo: int, hi: int) -> DataFrame:
    """Range scan ``[lo, hi)``: a block starting at ``start`` with ``n``
    values yields its positions ``[max(lo - start, 0), min(hi - start,
    n))``, through ``NeaTS.scan`` (Section IV-C4).  The selection runs only
    in the executor: no Spark filter carries ``lo`` or ``hi``, so a new range
    compiles no new code (DESIGN.md §6).  A bound that is not an integer
    (a float) raises ``TypeError``."""
    return _select(blocks, partial(_pick_range, operator.index(lo), operator.index(hi)))


# The pick functions of the three reads: given a block's ``start`` and ``n``,
# the offsets to decode (a slice, an array of offsets, or ``None``).
def _pick_all(start: int, n: int):
    return slice(0, n)


def _pick_keys(ks: np.ndarray, start: int, n: int):
    a, b = np.searchsorted(ks, [start, start + n])
    return ks[a:b] - start if a < b else None


def _pick_range(lo: int, hi: int, start: int, n: int):
    a, b = max(lo - start, 0), min(hi - start, n)
    return slice(a, b) if a < b else None


def _select(blocks: DataFrame, pick) -> DataFrame:
    """The one executor read: per block row, ``pick(start, n)`` gives the
    offsets to decode, which the block yields as ``(idx, y)`` rows.  The
    executor function and ``pick`` are module-level functions bound by
    ``functools.partial``, so a task pickles them by reference."""
    return blocks.mapInArrow(partial(_select_batches, pick), schema=_DECODED_SCHEMA)


def _select_batches(pick, batches: Iterator[pa.RecordBatch]) -> Iterator[pa.RecordBatch]:
    for batch in batches:
        idxs, ys = [], []
        columns = (batch[name].to_pylist() for name in ("start_idx", "n", "codec", "payload"))
        for start, n, codec, payload in zip(*columns):
            part = pick(start, n)
            if part is not None:
                ys.append(_read(payload, codec, n, part))
                idxs.append(np.arange(start, start + n, dtype=np.int64)[part])
        if idxs:
            yield pa.record_batch({"idx": np.concatenate(idxs), "y": np.concatenate(ys)})
