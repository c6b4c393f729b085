"""The DuckDB oracle itself + the Spark fan-out runner."""
import numpy as np
import pandas as pd
import pytest
from pyspark import TaskContext

from repro.oracle import assert_equivalent
from repro.runner import fan_out


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
