"""Level-graph state shared by the sequential and parallel engines.

A *level* is one graph in the Louvain coarsening hierarchy. Per-vertex
driver state (O(n) numpy arrays) rides alongside the distributed edge
data:

- ``k``     — LambdaCC vertex weight of the (super)vertex,
- ``sq``    — sum of squared *original* vertex weights collapsed into it,
- ``selfw`` — total *unordered* original edge weight already internal to it.

With those, the exact level-invariant ordered-pair CC objective of a
clustering ``assign`` of the level's vertices is::

    CC = Σ_{directed edges, same cluster} w          (== 2 × unordered intra)
       + 2 · Σ_v selfw_v
       − λ · ( Σ_c K_c² − Σ_v sq_v )

which equals the paper's objective on the *original* graph for the
flattened clustering — compression preserves it exactly (tested).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np
import pandas as pd
from pyspark import StorageLevel
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import DoubleType, LongType, StructField, StructType

from ..graphs.ops import EDGE_SCHEMA, GraphData
from .config import CCConfig


@dataclass
class LevelGraph:
    """One level of the coarsening hierarchy (Spark edges + driver state)."""

    edges: DataFrame  # symmetric, no self loops, hash-partitioned by src
    n: int
    k: np.ndarray
    sq: np.ndarray
    selfw: np.ndarray
    m_directed: int = 0  # cached row count of ``edges``
    owns_cache: bool = True  # False when ``edges`` is a caller's cached input

    def unpersist(self) -> None:
        if self.owns_cache:
            self.edges.unpersist()


def densify(assign: np.ndarray) -> tuple[np.ndarray, int]:
    """Relabel arbitrary int cluster labels to dense [0, U)."""
    _, inv = np.unique(assign, return_inverse=True)
    return inv.astype("int64"), int(inv.max()) + 1 if len(inv) else 0


def cluster_weights(assign_dense: np.ndarray, k: np.ndarray, n_clusters: int) -> np.ndarray:
    """Total vertex weight K_c per dense cluster id."""
    return np.bincount(assign_dense, weights=k, minlength=n_clusters)


def level0(
    g: GraphData, k: np.ndarray, *, partitions: int
) -> LevelGraph:
    """Wrap an input graph as the hierarchy's level 0 (selfw=0, sq=k²).

    An input already cached with ``partitions`` partitions stays cached.
    """
    edges = g.edges
    if edges.rdd.getNumPartitions() != partitions:
        edges = edges.repartition(partitions, "src")
    owns_cache = edges.storageLevel == StorageLevel.NONE
    level = LevelGraph(
        edges=edges.persist() if owns_cache else edges,
        n=g.n,
        k=k.astype("float64"),
        sq=(k.astype("float64") ** 2),
        selfw=np.zeros(g.n),
        owns_cache=owns_cache,
    )
    try:
        level.m_directed = level.edges.count()  # materialize the cache
    except BaseException:
        level.unpersist()
        raise
    return level


def map_edge_partitions(
    edges: DataFrame,
    fn: Callable[[pd.DataFrame], pd.DataFrame],
    schema: StructType,
) -> DataFrame:
    """mapInPandas with whole-partition semantics.

    Arrow hands mapInPandas a partition as a *chunk iterator*; the move
    computation needs all edges of a vertex at once (they are co-located
    because edges are hash-partitioned by src), so chunks are
    concatenated before calling ``fn``.
    """

    def runner(it: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        chunks = list(it)
        if not chunks:
            return
        yield fn(pd.concat(chunks, ignore_index=True) if len(chunks) > 1 else chunks[0])

    return edges.mapInPandas(runner, schema=schema)


_SUM_SCHEMA = StructType([StructField("s", DoubleType(), False)])


def intra_weight(edges: DataFrame, assign: np.ndarray) -> float:
    """Σ w over *directed* edge rows whose endpoints share a cluster."""
    sc = edges.sparkSession.sparkContext
    bc = sc.broadcast(assign)

    def partial(pdf: pd.DataFrame) -> pd.DataFrame:
        a = bc.value
        same = a[pdf["src"].to_numpy()] == a[pdf["dst"].to_numpy()]
        return pd.DataFrame({"s": [float(pdf["w"].to_numpy()[same].sum())]})

    try:
        out = map_edge_partitions(edges, partial, _SUM_SCHEMA).agg(
            F.sum("s").alias("s")
        ).first()
        return float(out["s"] or 0.0)
    finally:
        bc.destroy()


def cc_objective(level: LevelGraph, assign: np.ndarray, lam: float) -> float:
    """Ordered-pair LambdaCC objective of ``assign`` on this level.

    Equals the paper's objective on the original graph for the flattened
    clustering (the selfw/sq bookkeeping makes it level-invariant).
    """
    dense, nc = densify(assign)
    K = cluster_weights(dense, level.k, nc)
    intra = intra_weight(level.edges, dense)
    return float(
        intra + 2.0 * level.selfw.sum() - lam * ((K**2).sum() - level.sq.sum())
    )


def coarse_weights(
    level, assign_dense: np.ndarray, n_clusters: int, self_src: np.ndarray, self_w: np.ndarray
) -> dict[str, np.ndarray]:
    """The coarse level's ``k``/``sq``/``selfw``, shared by every compression.

    ``level`` is any level with those arrays; ``self_w`` are the directed
    self-loop sums of clusters ``self_src``, which count each unordered
    intra-cluster edge twice.
    """
    selfw = np.bincount(assign_dense, weights=level.selfw, minlength=n_clusters)
    selfw[self_src] += self_w / 2.0
    return dict(
        k=np.bincount(assign_dense, weights=level.k, minlength=n_clusters),
        sq=np.bincount(assign_dense, weights=level.sq, minlength=n_clusters),
        selfw=selfw,
    )


def compress(
    level: LevelGraph, assign_dense: np.ndarray, n_clusters: int, *, partitions: int
) -> LevelGraph:
    """PARALLEL-COMPRESS: coarsen the level by a dense clustering.

    Endpoint relabeling is a broadcast map; edge aggregation is a
    Catalyst ``groupBy(src, dst).sum(w)`` shuffle — the dataflow analog
    of the paper's work-efficient parallel semisort compression. The
    aggregate, self loops included, is cached for the length of the call,
    so the relabel pass and the shuffle run once: the self-loop weights
    and the new level's edges are both read from that cache.
    """
    sc = level.edges.sparkSession.sparkContext
    bc = sc.broadcast(assign_dense)

    def relabel(pdf: pd.DataFrame) -> pd.DataFrame:
        a = bc.value
        return pd.DataFrame(
            {
                "src": a[pdf["src"].to_numpy()],
                "dst": a[pdf["dst"].to_numpy()],
                "w": pdf["w"].to_numpy(),
            }
        )

    agg = (
        map_edge_partitions(level.edges, relabel, EDGE_SCHEMA)
        .groupBy("src", "dst")
        .agg(F.sum("w").alias("w"))
        .repartition(partitions, "src")
        .persist()
    )
    new_edges = agg.where(F.col("src") != F.col("dst")).persist()
    try:
        self_pdf = agg.where(F.col("src") == F.col("dst")).toPandas()
        m_new = new_edges.count()
    except BaseException:
        new_edges.unpersist()
        raise
    finally:
        agg.unpersist(blocking=True)
        bc.destroy()
    return LevelGraph(
        edges=new_edges,
        n=n_clusters,
        m_directed=m_new,
        **coarse_weights(
            level, assign_dense, n_clusters, self_pdf["src"].to_numpy(), self_pdf["w"].to_numpy()
        ),
    )


def flatten(assign: np.ndarray, assign_coarse: np.ndarray) -> np.ndarray:
    """PARALLEL-FLATTEN: compose a coarse clustering onto the fine level."""
    return assign_coarse[assign]


@dataclass
class LevelStats:
    """Per-level instrumentation (feeds T3 rounds, T6 memory)."""

    n: int
    m_directed: int
    iters: int = 0
    moves: int = 0
    refine_iters: int = 0
    refine_moves: int = 0
    time_moves: float = 0.0
    time_compress: float = 0.0
    time_refine: float = 0.0


@dataclass
class RunStats:
    """Whole-run instrumentation for one engine invocation."""

    algo: str
    total_time: float = 0.0
    levels: list[LevelStats] = field(default_factory=list)
    objective: float = 0.0
    reported_objective: float = 0.0  # CC, or modularity Q = CC/(2W)
    n_clusters: int = 0
    lam: float = 0.0
    two_w: float = 0.0  # total directed weight (modularity normalizer)

    @property
    def total_rounds(self) -> int:
        return sum(l.iters + l.refine_iters for l in self.levels)

    @property
    def retained_edges_refine(self) -> int:
        """Directed edge rows held simultaneously when refinement keeps all levels."""
        return sum(l.m_directed for l in self.levels)

    @property
    def retained_edges_norefine(self) -> int:
        """Peak simultaneous rows when each level is dropped after compression.

        A model that leaves out level 0, which the engine holds until the end.
        """
        ms = [l.m_directed for l in self.levels]
        return max((ms[i] + ms[i + 1] for i in range(len(ms) - 1)), default=ms[0] if ms else 0)


def regime(cfg: CCConfig, deg: np.ndarray, engine: str) -> tuple[np.ndarray, RunStats]:
    """Vertex weights ``k0`` and a fresh ``RunStats`` (λ, 2W) for ``cfg.objective``.

    ``"cc"``: unit weights and λ = resolution. ``"modularity"``: weighted
    degrees and λ = γ / 2W (§2). ``deg`` are the weighted degrees.
    """
    two_w = float(deg.sum())
    if cfg.objective == "modularity":
        k0, lam = deg, (cfg.resolution / two_w if two_w > 0 else 0.0)
    else:
        k0, lam = np.ones(len(deg)), cfg.resolution
    return k0, RunStats(algo=f"{engine}-{cfg.objective}", lam=lam, two_w=two_w)


def record_result(stats: RunStats, cfg: CCConfig, assign: np.ndarray, objective: float) -> None:
    """Store the run's CC objective, the figure it reports (CC, or Q = CC/2W)
    and its cluster count."""
    stats.objective = objective
    stats.reported_objective = (
        objective / stats.two_w
        if cfg.objective == "modularity" and stats.two_w > 0
        else objective
    )
    stats.n_clusters = int(assign.max()) + 1 if len(assign) else 0


class Timer:
    """Tiny context timer: ``with Timer() as t: ...; t.s``."""

    def __enter__(self) -> "Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.s = time.perf_counter() - self._t0


def louvain(
    level,
    moves: Callable,
    compress: Callable,
    release: Callable,
    cfg: CCConfig,
    stats: RunStats,
    depth: int = 0,
) -> np.ndarray:
    """The level loop of Algorithms 1 and 2; returns a dense assignment.

    ``moves(level, assign, depth, refine)`` -> (assignment, moves, iterations);
    stop if nothing moved or merged, or at ``cfg.max_levels``; else
    ``compress(level, dense, n_clusters)``, recurse, FLATTEN, and refine
    (§3.2.3). Each coarse level is ``release``d after its subtree, on error
    too, and without refinement a level below level 0 once its child is built
    (so ``release`` must tolerate a second call).
    """
    lstats = LevelStats(n=level.n, m_directed=level.m_directed)
    stats.levels.append(lstats)
    with Timer() as t:
        assign, nmoves, iters = moves(level, np.arange(level.n), depth, False)
    lstats.time_moves, lstats.iters, lstats.moves = t.s, iters, nmoves
    dense, nc = densify(assign)
    if nmoves == 0 or nc >= level.n or depth + 1 >= cfg.max_levels:
        return dense
    with Timer() as t:
        child = compress(level, dense, nc)
    lstats.time_compress = t.s
    if depth > 0 and not cfg.refine:
        release(level)
    try:
        assign = flatten(dense, louvain(child, moves, compress, release, cfg, stats, depth + 1))
    finally:
        release(child)
    if cfg.refine:
        with Timer() as t:
            assign, rmoves, riters = moves(level, assign, depth, True)
        lstats.time_refine, lstats.refine_iters, lstats.refine_moves = t.s, riters, rmoves
    return densify(assign)[0]
