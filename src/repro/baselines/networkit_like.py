"""NetworKit PLM stand-in for the modularity comparison (Figure 17).

NetworKit's PLM is, like PAR-MOD, an asynchronous Louvain for
modularity; the paper attributes its ≤3.5x advantage over NetworKit
specifically to *parallelizing the graph compression step*. This
stand-in therefore runs the identical engine and objective but hands it
a compressor that aggregates edges in a single-threaded interpreted loop
on the driver (``driver_python_compress``), isolating exactly the
difference the paper measures. NetworKit's default iteration cap
(num_iter=32) is used, matching the paper's comparison setup.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from ..core.config import CCConfig
from ..core.par_louvain import parallel_cc
from ..core.state import LevelGraph, RunStats, coarse_weights
from ..graphs.ops import EDGE_SCHEMA, GraphData


def driver_python_compress(
    level: LevelGraph, assign_dense: np.ndarray, n_clusters: int, *, partitions: int
) -> LevelGraph:
    """Single-threaded compression (NetworKit stand-in, DESIGN.md §3).

    Collects the relabeled edges and aggregates them in an interpreted
    python loop — modeling a compression step that is *not* efficiently
    parallelized, which is exactly the difference the paper credits for
    its speedup over NetworKit.
    """
    pdf = level.edges.toPandas()
    src = assign_dense[pdf["src"].to_numpy()]
    dst = assign_dense[pdf["dst"].to_numpy()]
    agg: dict[tuple[int, int], float] = {}
    for s, d, x in zip(src.tolist(), dst.tolist(), pdf["w"].tolist()):
        agg[s, d] = agg.get((s, d), 0.0) + x
    rows = pd.DataFrame(
        [(s, d, x) for (s, d), x in agg.items()], columns=["src", "dst", "w"]
    ).astype({"src": "int64", "dst": "int64", "w": "float64"})
    loops = rows["src"] == rows["dst"]
    new_edges = (
        level.edges.sparkSession.createDataFrame(rows[~loops], schema=EDGE_SCHEMA)
        .repartition(partitions, "src")
        .persist()
    )
    self_rows = rows[loops]
    return LevelGraph(
        edges=new_edges,
        n=n_clusters,
        m_directed=new_edges.count(),
        **coarse_weights(
            level, assign_dense, n_clusters, self_rows["src"].to_numpy(), self_rows["w"].to_numpy()
        ),
    )


def networkit_like(
    g: GraphData, *, gamma: float = 1.0, seed: int = 0, partitions: int = 8
) -> tuple[np.ndarray, RunStats]:
    """PLM stand-in: async parallel modularity Louvain, sequential compression."""
    cfg = CCConfig(
        resolution=gamma,
        objective="modularity",
        num_iter=32,
        async_moves=True,
        frontier="vertices",
        refine=True,
        seed=seed,
        partitions=partitions,
    )
    assign, stats = parallel_cc(g, cfg, compressor=driver_python_compress)
    stats.algo = "networkit-like"
    return assign, stats
