"""The DuckDB oracle itself + the Spark fan-out runner and session."""
import json
import os
import subprocess
import sys

import numpy as np
import pandas as pd
import pytest
from pyspark import TaskContext

from repro.oracle import assert_equivalent
from repro.runner import fan_out, get_spark


class TestOracle:
    def test_accepts_matching_result(self, spark):
        pdf = pd.DataFrame({"k": [1, 2, 3], "v": [10.0, 20.0, 30.0]})
        df = spark.createDataFrame(pdf)
        assert_equivalent(df, "SELECT k, v FROM t", t=pdf)

    def test_rejects_wrong_values(self, spark):
        pdf = pd.DataFrame({"k": [1, 2, 3], "v": [10.0, 20.0, 30.0]})
        bad = pd.DataFrame({"k": [1, 2, 3], "v": [10.0, 20.0, 31.0]})
        df = spark.createDataFrame(bad)
        with pytest.raises(AssertionError):
            assert_equivalent(df, "SELECT k, v FROM t", t=pdf)

    def test_rejects_column_mismatch(self, spark):
        pdf = pd.DataFrame({"k": [1], "v": [1.0]})
        df = spark.createDataFrame(pdf.rename(columns={"v": "w"}))
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent(df, "SELECT k, v FROM t", t=pdf)

    def test_row_order_insensitive(self, spark):
        pdf = pd.DataFrame({"k": [3, 1, 2]})
        df = spark.createDataFrame(pd.DataFrame({"k": [2, 3, 1]}))
        assert_equivalent(df, "SELECT k FROM t", t=pdf)

    def test_spark_input_tables(self, spark):
        pdf = pd.DataFrame({"k": [1, 2], "v": [5.0, 6.0]})
        sdf = spark.createDataFrame(pdf)
        got = sdf.groupBy().sum("v").withColumnRenamed("sum(v)", "s")
        assert_equivalent(got, "SELECT sum(v) AS s FROM t", t=sdf)


class TestFanOut:
    def test_runs_function_per_item(self, spark):
        rows = fan_out(
            spark, ["a", "bb", "ccc"],
            lambda it: [{"item": it, "n": len(it)}],
            "item string, n long",
        )
        got = {(r["item"], r["n"]) for r in rows}
        assert got == {("a", 1), ("bb", 2), ("ccc", 3)}

    def test_multiple_rows_per_item(self, spark):
        rows = fan_out(
            spark, ["x"],
            lambda it: [{"item": it, "n": i} for i in range(3)],
            "item string, n long",
        )
        assert sorted(r["n"] for r in rows) == [0, 1, 2]

    def test_one_item_per_partition(self, spark):
        """16 items (the table jobs' 16 datasets) run in 16 distinct partitions."""
        rows = fan_out(
            spark, [f"d{i}" for i in range(16)],
            lambda it: [{"item": it, "part": TaskContext.get().partitionId()}],
            "item string, part long",
        )
        assert len(rows) == 16
        assert len({r["part"] for r in rows}) == 16


# A child process: a session from ``get_spark``, one ``mapInPandas`` job
# (which starts the Python workers), then the socket directory and its
# socket paths as JSON, read while the JVM still runs.
_SOCKET_PROBE = """
import json, os
from repro.runner import get_spark
spark = get_spark("socket-probe")
spark.range(4).mapInPandas(lambda batches: batches, "id long").collect()
where = spark.conf.get("spark.python.unix.domain.socket.dir")
print(json.dumps({"dir": where, "paths": [os.path.join(where, f) for f in os.listdir(where)]}))
"""


class TestGetSpark:
    """Python workers talk to the JVM over a Unix domain socket in a private
    directory under ``/tmp``, whatever ``TMPDIR`` is."""

    def test_session_uses_a_private_socket_dir(self, spark):
        assert spark.conf.get("spark.python.unix.domain.socket.enabled") == "true"
        where = spark.conf.get("spark.python.unix.domain.socket.dir")
        assert os.path.dirname(where) == "/tmp" and os.path.isdir(where)
        assert get_spark() is spark

    def test_deep_tmpdir(self, tmp_path):
        """With a 150-character ``TMPDIR`` every socket path stays under
        ``sun_path``'s 108 bytes, and the directory is gone once the
        interpreter has exited."""
        tmpdir = tmp_path / ("d" * (150 - len(str(tmp_path)) - 1))
        tmpdir.mkdir()
        assert len(str(tmpdir)) == 150
        env = {**os.environ, "TMPDIR": str(tmpdir), "SPARK_MASTER": "local[1]",
               "PYTHONPATH": os.pathsep.join(sys.path),
               "PYSPARK_SUBMIT_ARGS": "--master local[1] --driver-memory 1g --conf spark.driver.host=127.0.0.1 "
                                      "--conf spark.ui.enabled=false pyspark-shell"}
        out = subprocess.run([sys.executable, "-c", _SOCKET_PROBE], env=env, capture_output=True,
                             text=True, timeout=300)
        assert out.returncode == 0, out.stderr[-2000:]
        got = json.loads(out.stdout.strip().splitlines()[-1])
        assert os.path.dirname(got["dir"]) == "/tmp"
        assert [p for p in got["paths"] if p.endswith(".sock")]  # the workers' daemon listens here
        assert all(len(os.fsencode(p)) < 108 for p in got["paths"]), got["paths"]
        assert not os.path.exists(got["dir"])
