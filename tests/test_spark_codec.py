"""Spark per-partition codec: block compression, decoding, random access,
range queries — query results verified against the DuckDB oracle over the
original uncompressed data — and the lazy zip invalidation that the
workers get from their daemon."""
import importlib
import os
import pickle
import re
import runpy
import subprocess
import sys
import zipfile
import zipimport

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from pyspark.errors import PythonException
from pyspark.sql import GroupedData, functions as F
from pyspark.sql.pandas.types import to_arrow_schema

from repro.baselines.gp import GPCodec
from repro.core.neats import VARIANTS, CorruptPayloadError
from repro.core.partition import OutOfDomainError
from repro.oracle import assert_equivalent
from repro.sparkio import daemon
from repro.sparkio.codec import (
    _DECODED_SCHEMA, BLOCK_SCHEMA, _encode, _pick_all, _select_batches, compress_to_blocks, decode_block,
    decompress_blocks, encode_block, random_access, range_query,
)
from repro.sparkio.rowgroup_store import point_lookup, read_blocks, scan_range, write_store
from repro.tsdata import load

N = 3000
BLOCK = 512


@pytest.fixture(scope="module")
def series():
    return load("IT", n=N, seed=7)


@pytest.fixture(scope="module")
def ts_df(spark, series):
    pdf = pd.DataFrame({"idx": np.arange(N), "y": series.ints})
    return spark.createDataFrame(pdf)


@pytest.fixture(scope="module")
def neats_blocks(spark, ts_df):
    return compress_to_blocks(ts_df, codec="neats", block_size=BLOCK).cache()


class TestEncodeBlock:
    @pytest.mark.parametrize("codec", VARIANTS)
    def test_roundtrip(self, codec, series):
        vals = series.ints[:800]
        payload = encode_block(vals, codec)
        out = decode_block(payload, codec, len(vals))
        assert np.array_equal(out, vals)

    def test_unknown_codec(self):
        with pytest.raises(ValueError):
            encode_block(np.arange(4, dtype=np.int64), "nope")

    def test_neats_payload_compresses(self, series):
        payload = encode_block(series.ints, "neats")
        assert len(payload) < 8 * series.n

    @pytest.mark.parametrize("values", [np.array([1.5, 2.7, 3.2]), np.array([1, 2, 2**64 - 1], dtype=np.uint64)],
                             ids=["float64", "uint64"])
    def test_refuses_values_it_would_truncate(self, values):
        """Floats are not truncated and uint64 values past int64 do not wrap."""
        with pytest.raises(OutOfDomainError, match=str(values.dtype)):
            encode_block(values, "neats")


class TestForgedRowCount:
    """A row's ``n`` and its payload's own count of values must agree."""

    @pytest.mark.parametrize("codec", ["neats", "sneats"])
    @pytest.mark.parametrize("delta", [-1, 1])
    def test_count_mismatch_raises(self, codec, delta, series):
        vals = series.ints[:800]
        with pytest.raises(CorruptPayloadError, match="800"):
            decode_block(encode_block(vals, codec), codec, len(vals) + delta)

    @pytest.mark.parametrize("codec", VARIANTS)
    @pytest.mark.parametrize("cut", [1, 8, 17, "half"])
    def test_cut_payload_raises(self, codec, cut, series):
        """Every variant's payload cut short raises :class:`CorruptPayloadError`."""
        vals = series.ints[:1000]
        payload = encode_block(vals, codec)
        keep = len(payload) // 2 if cut == "half" else len(payload) - cut
        with pytest.raises(CorruptPayloadError):
            decode_block(payload[:keep], codec, len(vals))

    def test_neats_header_n_past_its_row(self):
        """A header ``n`` that no section bounds (the last fragment's
        corrections are 0 bits wide) is caught against the row's ``n``."""
        payload = bytearray(encode_block(np.full(1000, 7, dtype=np.int64), "neats"))
        payload[4:12] = (2**40).to_bytes(8, "little")
        with pytest.raises(CorruptPayloadError, match=str(2**40)):
            decode_block(bytes(payload), "neats", 1000)

    def test_spark_read_of_a_forged_row_fails(self, spark, neats_blocks):
        forged = neats_blocks.withColumn("n", F.col("n") + 1)
        with pytest.raises(PythonException, match="CorruptPayloadError"):
            decompress_blocks(forged).collect()

    def test_non_neats_row_raises(self, spark, tmp_path):
        """A row of another codec, as in a store written with ``zstd``
        blocks, is refused by name rather than read as a NeaTS payload."""
        payload = GPCodec("Zstd").compress(np.arange(100, dtype=np.int64))
        with pytest.raises(CorruptPayloadError, match="'zstd'"):
            decode_block(payload, "zstd", 100)
        path = str(tmp_path / "store")
        write_store(spark.createDataFrame([(0, 0, 100, "zstd", payload)], BLOCK_SCHEMA), path)
        with pytest.raises(PythonException, match="CorruptPayloadError: a 'zstd' row"):
            scan_range(spark, path, 0, 10).collect()


class TestIngestIdx:
    """A block is read back as ``start_idx + arange(n)``, so ingest refuses a
    block whose ``idx`` has a gap or a duplicate instead of renumbering it,
    and a block with a null ``idx`` or ``y``, naming the column."""

    @pytest.mark.parametrize("codec", ["neats"])
    @pytest.mark.parametrize("idx", [[0, 2, 4, 6], [0, 1, 1, 2]], ids=["gap", "duplicate"])
    def test_not_consecutive_raises(self, spark, codec, idx):
        df = spark.createDataFrame(pd.DataFrame({"idx": idx, "y": [10, 20, 30, 40]}))
        with pytest.raises(PythonException, match=r"ValueError: block \d+: its idx values are not consecutive"):
            compress_to_blocks(df, codec=codec, block_size=4).collect()

    @pytest.mark.parametrize("rows, block, column", [([(0, 1), (None, 2)], "None", "idx"),
                                                      ([(0, 1), (1, None)], "0", "y")], ids=["null-idx", "null-y"])
    def test_null_raises(self, spark, rows, block, column):
        """A null would reach the encoder as a float (a null ``y``) or an
        ``arange`` of no length (a null ``idx``)."""
        df = spark.createDataFrame(rows, "idx long, y long")
        with pytest.raises(PythonException, match=f"ValueError: block {block}: column {column} holds 1 null value"):
            compress_to_blocks(df, block_size=4).collect()


class TestIngestBlockIds:
    """``block_id`` is ``idx DIV block_size`` in integers: a double division
    would move the block edges past 2**53."""

    def test_blocks_past_2_53(self, spark):
        start, size = 2**60 - 4096, 4096
        idx = np.arange(start, start + 3 * size, dtype=np.int64)
        ys = np.random.default_rng(5).integers(-1000, 1000, len(idx))
        blocks = compress_to_blocks(spark.createDataFrame(pd.DataFrame({"idx": idx, "y": ys})), block_size=size)
        rows = blocks.orderBy("block_id").collect()
        assert [(r.block_id, r.start_idx, r.n) for r in rows] == [
            (start // size + b, start + b * size, size) for b in range(3)]
        got = decompress_blocks(blocks).toPandas().sort_values("idx")
        assert np.array_equal(got["idx"], idx) and np.array_equal(got["y"], ys)


class TestExecutorFunctions:
    """What the reads and the ingest hand to Spark are module-level
    functions bound by ``functools.partial``: they pickle by reference with
    the standard ``pickle``, which refuses closures."""

    class Capture:
        def mapInArrow(self, fn, schema):
            return fn

    @staticmethod
    def rows(fn):
        """The rows ``fn`` yields for one batch of two block rows."""
        batch = pa.record_batch({"start_idx": [0, 100], "n": [100, 50], "codec": ["neats", "sneats"],
                                 "payload": [encode_block(np.arange(100) * 3, "neats"),
                                             encode_block(np.arange(50) - 7, "sneats")]})
        return [[row["idx"], row["y"]] for out in fn(iter([batch])) for row in out.to_pylist()]

    def test_reads_pickle(self, spark):
        keys = spark.createDataFrame([(3,), (120,), (500,)], "idx long")
        reads = {"range": (range_query(self.Capture(), 98, 103), [[98, 294], [99, 297], [100, -7], [101, -6],
                                                                   [102, -5]]),
                 "keys": (random_access(self.Capture(), keys), [[3, 9], [120, 13]]),
                 "all": (decompress_blocks(self.Capture()), [[i, 3 * i] for i in range(100)]
                         + [[100 + i, i - 7] for i in range(50)])}
        for name, (fn, expect) in reads.items():
            shipped = pickle.loads(pickle.dumps(fn))
            assert self.rows(fn) == self.rows(shipped) == expect, name

    def test_encode_pickles(self, spark, monkeypatch):
        monkeypatch.setattr(GroupedData, "applyInArrow", lambda self, fn, schema: fn)
        df = spark.createDataFrame([(0, 1)], "idx long, y long")
        fn = pickle.loads(pickle.dumps(compress_to_blocks(df, codec="leats")))
        [row] = fn(pa.table({"idx": [11, 10], "y": [5, 4], "block_id": [2, 2]})).to_pylist()
        assert (row["block_id"], row["start_idx"], row["n"], row["codec"]) == (2, 10, 2, "leats")
        assert np.array_equal(decode_block(row["payload"], "leats", 2), [4, 5])


class TestArrowBoundary:
    """Blocks cross Spark's Python boundary as Arrow, which does not coerce
    types: what the executor functions return must have the Arrow types of
    the schema that they declare to Spark, and the Spark path does not load
    pandas."""

    @staticmethod
    def types(schema):
        return [(field.name, field.type) for field in schema]

    def test_encode_returns_block_schema_types(self):
        table = pa.table({"idx": np.array([1, 0], dtype=np.int64), "y": np.array([9, 8], dtype=np.int64),
                          "block_id": np.array([0, 0], dtype=np.int64)})
        for codec in VARIANTS:
            assert self.types(_encode(codec, table).schema) == self.types(to_arrow_schema(BLOCK_SCHEMA)), codec

    def test_select_yields_decoded_schema_types(self):
        batch = pa.Table.from_pylist([{"block_id": 0, "start_idx": 0, "n": 4, "codec": "neats",
                                       "payload": encode_block(np.arange(4), "neats")}],
                                     schema=to_arrow_schema(BLOCK_SCHEMA)).to_batches()[0]
        [out] = _select_batches(_pick_all, iter([batch]))
        assert self.types(out.schema) == self.types(to_arrow_schema(_DECODED_SCHEMA))
        assert out.to_pydict() == {"idx": [0, 1, 2, 3], "y": [0, 1, 2, 3]}

    def test_codec_and_store_import_no_pandas(self):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        code = ("import sys, repro.sparkio.codec, repro.sparkio.rowgroup_store\n"
                "print('pandas' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr[-2000:]
        assert out.stdout.strip() == "False"


class TestIngestPayloads:
    """Every payload that Spark writes is ``encode_block`` of its block's
    values, whatever order the rows arrive in: the encoder path changes no
    byte of the store (its size and ``TestFormatPins``' format)."""

    @pytest.mark.parametrize("codec", VARIANTS)
    def test_payloads_match_encode_block(self, spark, series, codec):
        order = np.random.default_rng(13).permutation(N)
        df = spark.createDataFrame(pd.DataFrame({"idx": order, "y": series.ints[order]}))
        rows = compress_to_blocks(df, codec=codec, block_size=BLOCK).orderBy("start_idx").collect()
        assert [(r.block_id, r.start_idx, r.n) for r in rows] == [
            (b, b * BLOCK, min(BLOCK, N - b * BLOCK)) for b in range((N + BLOCK - 1) // BLOCK)]
        for r in rows:
            assert r.codec == codec
            assert r.payload == encode_block(series.ints[r.start_idx:r.start_idx + r.n], codec), r.block_id


class TestIngestDomain:
    """``compress_to_blocks`` checks its arguments on the driver, before any
    job: the cast to long would truncate a non-integral ``idx`` or ``y``."""

    @pytest.mark.parametrize("idx, y", [([0, 1, 2, 3], [1.5, 2.7, 3.2, 4.9]), ([0, 1.5, 2, 3], [10, 20, 30, 40])],
                             ids=["double-y", "double-idx"])
    def test_non_integral_column_raises(self, spark, idx, y):
        df = spark.createDataFrame(pd.DataFrame({"idx": idx, "y": y}))
        with pytest.raises(OutOfDomainError, match="column (idx|y) is double"):
            compress_to_blocks(df, block_size=4)

    @pytest.mark.parametrize("name", ["zstd", "nope"])
    def test_unknown_codec_raises(self, spark, name):
        df = spark.createDataFrame(pd.DataFrame({"idx": [0, 1], "y": [10, 20]}))
        with pytest.raises(ValueError, match=f"unknown codec '{name}'"):
            compress_to_blocks(df, codec=name, block_size=4)

    @pytest.mark.parametrize("size, error", [(2.5, TypeError), (0, ValueError), (-4, ValueError)])
    def test_bad_block_size_raises(self, spark, size, error):
        """A float would be truncated to another block size, and a size
        below 1 divides by zero or makes negative block ids."""
        df = spark.createDataFrame(pd.DataFrame({"idx": [0, 1], "y": [10, 20]}))
        with pytest.raises(error, match=None if error is TypeError else "block_size"):
            compress_to_blocks(df, block_size=size)

    def test_numpy_block_size(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"idx": [0, 1, 2], "y": [10, 20, 30]}))
        rows = compress_to_blocks(df, block_size=np.int32(2)).orderBy("block_id").collect()
        assert [(r.start_idx, r.n) for r in rows] == [(0, 2), (2, 1)]

    def test_narrow_integral_columns(self, spark):
        df = spark.createDataFrame([(0, 10), (1, -20), (2, 30)], "idx int, y short")
        assert decompress_blocks(compress_to_blocks(df, block_size=4)).orderBy("idx").collect() == [
            (0, 10), (1, -20), (2, 30)]


class TestReadDomain:
    """The reads refuse positions that they would truncate, as ingest does:
    keys of a non-integral type on the driver, before any job, and range
    bounds that are not integers (numpy integers are, see ``TestRangeTrim``)."""

    @pytest.fixture(scope="class")
    def path(self, neats_blocks, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("domain") / "store")
        write_store(neats_blocks, path)
        return path

    @pytest.mark.parametrize("kind", ["double", "decimal(10,1)"])
    def test_non_integral_keys_raise(self, spark, neats_blocks, path, kind):
        keys = spark.createDataFrame([(1.9,), (2.5,), (1000.7,)], "idx double").selectExpr(
            f"CAST(idx AS {kind}) AS idx")
        for read in (lambda: random_access(neats_blocks, keys), lambda: point_lookup(spark, path, keys)):
            with pytest.raises(OutOfDomainError, match=re.escape(f"column idx is {kind}, not an integral type")):
                read()

    def test_narrow_integral_keys(self, spark, neats_blocks, series):
        keys = spark.createDataFrame([(5,), (600,)], "idx int")
        assert sorted(random_access(neats_blocks, keys).collect()) == [(5, series.ints[5]), (600, series.ints[600])]

    @pytest.mark.parametrize("lo, hi", [(1.0, 10), (0, 9.5)])
    def test_float_bounds_raise(self, spark, neats_blocks, path, lo, hi):
        with pytest.raises(TypeError):
            range_query(neats_blocks, lo, hi)
        with pytest.raises(TypeError):
            scan_range(spark, path, lo, hi)


class TestBlocksPipeline:
    def test_block_layout(self, neats_blocks):
        rows = neats_blocks.orderBy("block_id").collect()
        assert len(rows) == (N + BLOCK - 1) // BLOCK
        assert rows[0]["start_idx"] == 0
        assert sum(r["n"] for r in rows) == N
        for r in rows:
            assert r["codec"] == "neats"
            assert len(r["payload"]) > 0

    def test_decompress_roundtrip_via_oracle(self, spark, neats_blocks, series):
        decoded = decompress_blocks(neats_blocks)
        pdf = pd.DataFrame({"idx": np.arange(N), "y": series.ints})
        assert_equivalent(decoded, "SELECT idx, y FROM original", original=pdf)

    def test_aggregate_query_via_oracle(self, spark, neats_blocks, series):
        decoded = decompress_blocks(neats_blocks)
        got = decoded.agg(
            F.sum("y").alias("total"), F.count("y").alias("cnt"),
            F.min("y").alias("lo"), F.max("y").alias("hi"),
        )
        pdf = pd.DataFrame({"idx": np.arange(N), "y": series.ints})
        assert_equivalent(
            got,
            "SELECT sum(y) AS total, count(y) AS cnt, min(y) AS lo, max(y) AS hi FROM original",
            original=pdf,
        )

    def test_range_query_via_oracle(self, spark, neats_blocks, series):
        lo, hi = 700, 2100
        got = range_query(neats_blocks, lo, hi)
        pdf = pd.DataFrame({"idx": np.arange(N), "y": series.ints})
        assert_equivalent(
            got,
            f"SELECT idx, y FROM original WHERE idx >= {lo} AND idx < {hi}",
            original=pdf,
        )

    def test_scan_range_over_one_ordered_file(self, spark, neats_blocks, tmp_path):
        """Blocks written from one partition each still make one file, in
        ``start_idx`` order; the blocks outside the range yield nothing."""
        n_blocks = (N + BLOCK - 1) // BLOCK
        path = str(tmp_path / "store")
        write_store(neats_blocks.repartitionByRange(n_blocks, "block_id"), path)
        files = [f for f in os.listdir(path) if f.endswith(".parquet")]
        assert len(files) == 1
        starts = pq.read_table(os.path.join(path, files[0]), columns=["start_idx"])["start_idx"].to_pylist()
        assert starts == sorted(starts) and len(starts) == n_blocks
        for lo, hi in [(0, 10), (600, 610)]:
            got = scan_range(spark, path, lo, hi)
            assert sorted(r["idx"] for r in got.collect()) == list(range(lo, hi))

    def test_new_range_compiles_no_code(self, spark, neats_blocks, tmp_path):
        path = str(tmp_path / "store")
        write_store(neats_blocks, path)
        compilations = spark._jvm.org.apache.spark.metrics.source.CodegenMetrics.METRIC_COMPILATION_TIME().getCount
        scan_range(spark, path, 20, 30).collect()  # the first range read compiles the plan
        # new ranges: near the first, in another block, and one that ends
        # far past the series (the session shares Spark's code cache, and no
        # other test reads up to 2**40)
        for lo, hi in [(3, 17), (600, 610), (N - 10, 2**40)]:
            before = compilations()
            got = scan_range(spark, path, lo, hi).collect()
            assert compilations() == before
            assert sorted(r["idx"] for r in got) == list(range(lo, min(hi, N)))

    def test_random_access_join(self, spark, neats_blocks, series):
        rng = np.random.default_rng(0)
        keys = rng.choice(N, 40, replace=False)
        keys_df = spark.createDataFrame(pd.DataFrame({"idx": keys}))
        got = random_access(neats_blocks, keys_df)
        pdf = pd.DataFrame({"idx": np.arange(N), "y": series.ints})
        assert_equivalent(
            got,
            f"SELECT idx, y FROM original WHERE idx IN ({','.join(map(str, keys))})",
            original=pdf,
        )

    @pytest.mark.skipif(sys.version_info >= (3, 13), reason="zipimporter is lazy from CPython 3.13")
    def test_workers_run_lazy_zip_invalidate(self, spark, neats_blocks):
        """Every worker runs the lazy body, whether or not it ran a codec
        function: the daemon it forks from installed it as ``__main__``."""
        def probe(batches):  # must not reference the codec module
            for _ in batches:
                pass
            invalidate = zipimport.zipimporter.invalidate_caches
            yield pd.DataFrame({"codec_loaded": ["repro.sparkio.codec" in sys.modules],
                                "lazy": [invalidate.__name__ == "_lazy_zip_invalidate"]})

        def run_probe():
            return spark.range(0, 16, 1, 8).mapInPandas(probe, "codec_loaded boolean, lazy boolean").toPandas()

        decompress_blocks(neats_blocks).collect()
        got = [run_probe()]
        # Another worker environment gets another daemon, whose workers have
        # run the probe alone.
        env = spark.sparkContext.environment
        env["REPRO_PROBE_WORKERS"] = "fresh"
        try:
            fresh = run_probe()
        finally:
            del env["REPRO_PROBE_WORKERS"]
        assert not fresh["codec_loaded"].any()
        assert pd.concat([*got, fresh])["lazy"].all()


class TestRangeTrim:
    """``range_query`` and ``scan_range`` select and trim ``[lo, hi)`` in the
    executor (``NeaTS.scan``); ``decompress_blocks`` is the same read over
    every position, and ``random_access``/``point_lookup`` the same read of
    the keys inside each block's extent."""

    RANGES = [
        (511, 513),  # crosses a block edge
        (512, 512),
        (0, N),
        (N - 1, N),
        (2000, N - 100),  # ends inside the last, partial block
        (0, 2**63 - 1),  # ends at the largest int64
        (np.int64(510), np.int32(514)),  # numpy integers
    ]

    @pytest.fixture(scope="class", params=["neats"])
    def coded(self, request, spark, ts_df, tmp_path_factory):
        blocks = compress_to_blocks(ts_df, codec=request.param, block_size=BLOCK).cache()
        path = str(tmp_path_factory.mktemp(request.param) / "store")
        write_store(blocks, path)
        yield blocks, path
        blocks.unpersist()

    @pytest.mark.parametrize("lo, hi", RANGES)
    def test_range_via_oracle(self, spark, coded, series, lo, hi):
        blocks, path = coded
        pdf = pd.DataFrame({"idx": np.arange(N), "y": series.ints})
        sql = f"SELECT idx, y FROM original WHERE idx >= {lo} AND idx < {hi}"
        assert_equivalent(range_query(blocks, lo, hi), sql, original=pdf)
        assert_equivalent(scan_range(spark, path, lo, hi), sql, original=pdf)

    def test_decompress_via_oracle(self, coded, series):
        blocks, _ = coded
        pdf = pd.DataFrame({"idx": np.arange(N), "y": series.ints})
        assert_equivalent(decompress_blocks(blocks), "SELECT idx, y FROM original", original=pdf)

    def test_random_access_via_oracle(self, spark, coded, series):
        blocks, path = coded
        rng = np.random.default_rng(3)
        keys = np.unique(np.concatenate([[0, BLOCK - 1, BLOCK, N - 1], rng.choice(N, 30, replace=False)]))
        keys_df = spark.createDataFrame(pd.DataFrame({"idx": keys}))
        pdf = pd.DataFrame({"idx": np.arange(N), "y": series.ints})
        sql = f"SELECT idx, y FROM original WHERE idx IN ({','.join(map(str, keys))})"
        assert_equivalent(random_access(blocks, keys_df), sql, original=pdf)
        assert_equivalent(point_lookup(spark, path, keys_df), sql, original=pdf)

    def assert_lookup(self, spark, coded, series, keys, **kw):
        """``random_access`` and ``point_lookup`` of ``keys`` (``None`` for a
        null key) return the rows of the oracle's join of the keys to the
        series: one row per key that the series holds."""
        blocks, path = coded
        keys_df = spark.createDataFrame([(k,) for k in keys], "idx long")
        tables = {"original": pd.DataFrame({"idx": np.arange(N), "y": series.ints}),
                  "keys": pd.DataFrame({"idx": pd.array(keys, dtype="Int64")})}
        sql = "SELECT o.idx, o.y FROM original o JOIN keys k ON o.idx = k.idx"
        assert_equivalent(random_access(blocks, keys_df), sql, **tables)
        assert_equivalent(point_lookup(spark, path, keys_df, **kw), sql, **tables)

    def test_lookup_ignores_block_size(self, spark, coded, series):
        """A block answers the keys inside its own extent, so a block size
        other than the store's, passed to ``point_lookup``, misroutes nothing."""
        self.assert_lookup(spark, coded, series, [0, 255, 256, 300, 511, 512, 1023, 1024, N - 1],
                           block_size=BLOCK // 2)

    KEY_SETS = {
        "duplicates": [7, 7, 512, 1500, 1500, 1500, 511, N - 1, N - 1],  # one row per key
        "outside": [-1, -BLOCK, N, N + 1, 2**62, None, 0, N - 1],  # match nothing
        "empty": [],
    }

    @pytest.mark.parametrize("keys", KEY_SETS.values(), ids=KEY_SETS)
    def test_lookup_key_sets(self, spark, coded, series, keys):
        self.assert_lookup(spark, coded, series, keys)

    def test_lookup_plan_has_no_join(self, spark, coded):
        """A lookup or a range read is a scan of the blocks and one
        ``mapInArrow``: no join of the keys to the blocks, no filter on the
        block relation, and no shuffle."""
        _, path = coded
        keys_df = spark.createDataFrame([(5,), (1000,)], "idx long")
        reads = [random_access(read_blocks(spark, path), keys_df), point_lookup(spark, path, keys_df),
                 range_query(read_blocks(spark, path), 1022, 1025), scan_range(spark, path, 1022, 1025)]
        expect = [[5, 1000]] * 2 + [[1022, 1023, 1024]] * 2
        for got, idx in zip(reads, expect):
            plan = got._jdf.queryExecution().executedPlan().toString()
            nodes = re.findall(r"^[ +:-]*(?:\*\(\d+\) )?(\w+)", plan, re.M)
            assert nodes[0] == "MapInArrow", plan
            assert not [n for n in nodes if n == "Filter" or "Join" in n or "Exchange" in n], plan
            assert "PushedFilters: []" in plan, plan
            assert sorted(r["idx"] for r in got.collect()) == idx


class TestLazyZipInvalidate:
    """``daemon._lazy_zip_invalidate``, which ``repro.sparkio.daemon`` run as
    ``__main__`` installs on CPython < 3.13: ``importlib.invalidate_caches()``
    stops re-reading zip archives."""

    @pytest.fixture(autouse=True)
    def eager(self, monkeypatch):
        eager = zipimport.zipimporter.invalidate_caches
        monkeypatch.setattr(zipimport.zipimporter, "invalidate_caches", eager)
        monkeypatch.setattr(sys, "path_importer_cache", dict(sys.path_importer_cache))
        return eager

    @staticmethod
    def zip_with(path, *modules):
        with zipfile.ZipFile(path, "w") as z:
            for name in modules:
                z.writestr(f"{name}.py", f"NAME = {name!r}\n")
        return str(path)

    @staticmethod
    def run_daemon(monkeypatch):
        """Run the daemon module as Spark starts it, as ``__main__``, up to
        ``pyspark.daemon.manager``, which is not started."""
        import pyspark.daemon

        started = []
        monkeypatch.setattr(pyspark.daemon, "manager", lambda: started.append(True))
        runpy.run_path(daemon.__file__, run_name="__main__")
        assert started == [True]

    def test_driver_is_untouched(self, monkeypatch, eager):
        monkeypatch.delitem(sys.modules, "repro.sparkio.daemon")
        importlib.import_module("repro.sparkio.daemon")
        assert zipimport.zipimporter.invalidate_caches is eager

    @pytest.mark.skipif(sys.version_info >= (3, 13), reason="zipimporter is lazy from CPython 3.13")
    def test_task_skips_rereading_archives(self, monkeypatch, tmp_path):
        archive = self.zip_with(tmp_path / "a.zip", "lazy_zip_a")
        sys.path_importer_cache[archive] = zipimport.zipimporter(archive)
        reads = []
        read_directory = zipimport._read_directory
        monkeypatch.setattr(zipimport, "_read_directory", lambda p: reads.append(p) or read_directory(p))
        importlib.invalidate_caches()
        assert reads == [archive]  # the eager body re-reads the archive
        self.run_daemon(monkeypatch)
        invalidate = zipimport.zipimporter.invalidate_caches
        assert (invalidate.__module__, invalidate.__name__) == ("__main__", "_lazy_zip_invalidate")
        reads.clear()  # ``run_path`` probed the daemon's file as a zip
        importlib.invalidate_caches()
        assert reads == []

    def test_imports_still_work(self, monkeypatch, tmp_path):
        first = self.zip_with(tmp_path / "a.zip", "lazy_zip_a", "lazy_zip_b")
        monkeypatch.setattr(sys, "path", sys.path + [first])
        self.run_daemon(monkeypatch)
        try:
            assert importlib.import_module("lazy_zip_a").NAME == "lazy_zip_a"
            importlib.invalidate_caches()
            # an archive added after the daemon started, as ``addPyFile`` does
            second = self.zip_with(tmp_path / "c.zip", "lazy_zip_c")
            monkeypatch.setattr(sys, "path", sys.path + [second])
            importlib.invalidate_caches()
            assert importlib.import_module("lazy_zip_c").NAME == "lazy_zip_c"
            # an importer that already held its archive still serves it
            assert importlib.import_module("lazy_zip_b").NAME == "lazy_zip_b"
        finally:
            for name in ("lazy_zip_a", "lazy_zip_b", "lazy_zip_c"):
                sys.modules.pop(name, None)

    def test_noop_from_python_3_13(self, monkeypatch, eager):
        monkeypatch.setattr(sys, "version_info", (3, 13, 0, "final", 0))
        self.run_daemon(monkeypatch)
        assert zipimport.zipimporter.invalidate_caches is eager
