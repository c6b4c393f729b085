"""Shared helpers for the ``jobs/`` spark-submit entrypoints.

Jobs are functions taking a SparkSession (so tests reuse the ``spark``
fixture); ``get_spark`` builds an equivalent local session for standalone
``spark-submit``/``python jobs/<name>.py`` runs.
"""
from __future__ import annotations

import atexit
import functools
import json
import os
import shutil
import tempfile
from pathlib import Path

from pyspark.sql import SparkSession

__all__ = ["get_spark", "results_dir", "dump_json", "fan_out"]


@functools.cache
def _socket_dir() -> str:
    """A private directory for the sockets of Spark's Python workers, one
    per process, removed at interpreter exit.  It is made under ``/tmp``
    and not under ``TMPDIR``: a socket path holds at most 108 bytes
    (``sun_path``), which a deep ``TMPDIR`` would pass."""
    path = tempfile.mkdtemp(prefix="repro-spark-", dir="/tmp")
    atexit.register(shutil.rmtree, path, ignore_errors=True)
    return path


def get_spark(app: str = "repro-job") -> SparkSession:
    """The local session of the jobs.  The JVM talks to its Python workers
    over a Unix domain socket, where loopback TCP costs ~40 ms per job in
    the worker round trip, and the workers fork from ``sparkio.daemon``,
    which spares them the per-task zip re-reads (DESIGN.md §6)."""
    return (
        SparkSession.builder.appName(app)
        .master(os.environ.get("SPARK_MASTER", "local[*]"))
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.python.unix.domain.socket.enabled", "true")
        .config("spark.python.unix.domain.socket.dir", _socket_dir())
        .config("spark.python.daemon.module", "repro.sparkio.daemon")
        .getOrCreate()
    )


def results_dir() -> Path:
    d = Path(__file__).resolve().parents[2] / "results"
    d.mkdir(exist_ok=True)
    return d


def dump_json(name: str, obj) -> Path:
    path = results_dir() / name
    path.write_text(json.dumps(obj, indent=2, default=str))
    return path


def fan_out(spark: SparkSession, items: list[str], fn, schema):
    """Run ``fn(item) -> list[dict]`` for every item in parallel executors.

    Implemented with the DataFrame API (mapInPandas over a one-column
    DataFrame, one item per partition) so the 16 per-dataset measurement
    loops of the table harnesses use all cores.  ``parallelize`` slices the
    list into exactly one item per partition, where hashing the items can
    put two in one partition and leave another empty.
    """
    import pandas as pd

    rdd = spark.sparkContext.parallelize([(it,) for it in items], len(items))
    df = spark.createDataFrame(rdd, "item string")

    def _run(batches):
        for pdf in batches:
            rows = []
            for it in pdf["item"]:
                rows.extend(fn(it))
            if rows:
                yield pd.DataFrame(rows)

    return df.mapInPandas(_run, schema=schema).collect()
