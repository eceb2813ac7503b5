"""Tests for the Spark graph substrate (graphs.ops) with the DuckDB oracle."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphs import gen
from repro.graphs.ops import degree_array, degrees, to_spark, validate
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def small_graph():
    return gen.planted_partition(300, avg_deg=6, mixing=0.3, seed=1)


@pytest.fixture(scope="module")
def small_gd(spark, small_graph):
    gd = to_spark(spark, small_graph, partitions=4)
    gd.edges.cache().count()
    yield gd
    gd.edges.unpersist()


class TestToSpark:
    def test_row_count_doubles(self, small_gd, small_graph):
        assert small_gd.m_directed == 2 * small_graph.m

    def test_invariants(self, small_gd):
        validate(small_gd)

    def test_partitioned_by_src(self, small_gd):
        # All rows of one src must land in the same partition (the move
        # pass depends on this co-location).
        def part_srcs(it):
            import pandas as pd  # noqa: F401

            for pdf in it:
                yield pdf[["src"]].drop_duplicates()

        pdf = small_gd.edges.mapInPandas(
            part_srcs, schema="src long"
        ).withColumn("pid", F.spark_partition_id()).toPandas()
        per_src = pdf.groupby("src")["pid"].nunique()
        assert (per_src == 1).all()


class TestDegrees:
    def test_oracle(self, spark, small_gd, small_graph):
        got = degrees(small_gd)
        sym = pd.concat(
            [
                small_graph.edges.rename(columns={"u": "src", "v": "dst"}),
                small_graph.edges.rename(columns={"v": "src", "u": "dst"}),
            ]
        )[["src", "dst", "w"]]
        assert_equivalent(
            got,
            "SELECT src AS v, SUM(w) AS deg FROM sym GROUP BY src",
            sym=sym,
        )

    def test_degree_array_matches_numpy(self, small_gd, small_graph):
        arr = degree_array(small_gd)
        exp = np.zeros(small_graph.n)
        np.add.at(exp, small_graph.edges["u"].to_numpy(), small_graph.edges["w"].to_numpy())
        np.add.at(exp, small_graph.edges["v"].to_numpy(), small_graph.edges["w"].to_numpy())
        np.testing.assert_allclose(arr, exp)

    def test_handshake(self, small_gd, small_graph):
        # Sum of unweighted degrees == 2m.
        assert degree_array(small_gd).sum() == pytest.approx(2 * small_graph.m)
