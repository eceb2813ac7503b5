"""Spark-side graph representation and basic operations.

The distributed representation used throughout the repo is a symmetric
edge DataFrame ``edges(src: long, dst: long, w: double)`` holding *both*
directions of every undirected edge and no self loops — the dataflow
analog of the CSR the paper's shared-memory code uses.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import DoubleType, LongType, StructField, StructType

from .gen import GenGraph

EDGE_SCHEMA = StructType(
    [
        StructField("src", LongType(), False),
        StructField("dst", LongType(), False),
        StructField("w", DoubleType(), False),
    ]
)


@dataclass
class GraphData:
    """A distributed undirected graph: symmetric edge DataFrame + size."""

    edges: DataFrame  # src, dst, w — both directions, src != dst
    n: int
    name: str = "graph"

    @property
    def m_directed(self) -> int:
        """Number of directed edge rows (2x the undirected edge count)."""
        return self.edges.count()


def to_spark(spark: SparkSession, g: GenGraph, *, partitions: int = 8) -> GraphData:
    """Ship a generated graph to Spark, symmetrized and partitioned by src."""
    pdf = g.edges
    sym = pd.DataFrame(
        {
            "src": np.concatenate([pdf["u"].to_numpy(), pdf["v"].to_numpy()]),
            "dst": np.concatenate([pdf["v"].to_numpy(), pdf["u"].to_numpy()]),
            "w": np.concatenate([pdf["w"].to_numpy(), pdf["w"].to_numpy()]),
        }
    )
    df = spark.createDataFrame(sym, schema=EDGE_SCHEMA)
    df = df.repartition(partitions, "src")
    return GraphData(edges=df, n=g.n, name=g.name)


def degrees(g: GraphData) -> DataFrame:
    """Weighted degree per vertex: ``deg(v) = sum of w over incident edges``.

    Vertices with no edges are absent (callers densify with 0.0).
    """
    return g.edges.groupBy("src").agg(F.sum("w").alias("deg")).withColumnRenamed("src", "v")


def degree_array(g: GraphData) -> np.ndarray:
    """Dense numpy weighted-degree vector of length n (isolated vertices 0)."""
    pdf = degrees(g).toPandas()
    out = np.zeros(g.n, dtype="float64")
    out[pdf["v"].to_numpy()] = pdf["deg"].to_numpy()
    return out


def validate(g: GraphData) -> None:
    """Sanity-check the symmetric-edge invariants; raises AssertionError."""
    bad_self = g.edges.where(F.col("src") == F.col("dst")).count()
    assert bad_self == 0, f"{bad_self} self loops present"
    fwd = g.edges.select("src", "dst", "w")
    rev = g.edges.select(
        F.col("dst").alias("src"), F.col("src").alias("dst"), F.col("w")
    )
    asym = fwd.exceptAll(rev).count()
    assert asym == 0, f"{asym} asymmetric edge rows"
    rng = g.edges.agg(
        F.min("src").alias("lo"), F.max("src").alias("hi")
    ).first()
    assert rng["lo"] is None or (rng["lo"] >= 0 and rng["hi"] < g.n), "vertex id out of range"
