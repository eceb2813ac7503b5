"""PARALLEL-CC (Algorithm 1): distributed-dataflow parallel Louvain for LambdaCC.

The edge set is the distributed dataset (hash-partitioned by ``src`` so a
vertex's out-edges are co-located); the O(n) vertex state (assignment,
cluster weights ``K_c``, vertex weights ``k``, frontier masks) is broadcast
each BEST-MOVES iteration. One iteration is exactly one ``mapInPandas``
pass over the cached edge partitions. Each partition turns its edges into
a CSR and runs ``moves.sweep``, the move loop SEQ-CC runs too; the two
modes differ only in the order and consistency of that loop:

- **synchronous** (§3.2.1): every frontier vertex evaluates the appendix
  move-delta rule against the same broadcast snapshot; all moves are
  applied at once by the driver. Delta ties break toward the smallest
  cluster id, which is what makes Figure 1's lockstep pathology
  reproducible rather than an endless oscillation.
- **asynchronous** (§3.2.1): inside each edge partition the vertices are
  processed sequentially in random order against *partition-local* copies
  of the assignment/``K_c`` arrays that are updated immediately; across
  partitions the state is stale. This reproduces the paper's
  relaxed-consistency lock-free moves at partition granularity. Because a
  BSP step cannot interleave timing the way free-running threads do, each
  vertex additionally skips an iteration with constant probability
  (p=0.25) — the symmetry-breaking role timing noise plays in the paper.

Frontier options (§3.2.2) — ``all`` / ``vertices`` (neighbors of moved
vertices, Alg. 1 line 10) / ``clusters`` (members and neighbors of the
clusters movers left and joined) — are *fused into the move pass*: since
a vertex's edges are co-located, "has a neighbor in the moved set" is
computable per partition from the broadcast mask, so no separate
frontier job runs (the EDGEMAP role from GBBS). The level loop, with
multi-level refinement (§3.2.3) and level lifetime, is ``state.louvain``,
shared with SEQ-CC; level 0 is held until the final objective.

Every vertex may also *detach* into a fresh singleton cluster (label
``U + v`` in the pre-densify label space), which matters for large λ.
Compression between levels is ``state.compress`` unless the caller
passes another compressor (the NetworKit stand-in does).
"""
from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql.types import DoubleType, LongType, StructField, StructType

from ..graphs.ops import GraphData, degree_array
from .config import CCConfig
from .moves import csr, sweep
from .state import (
    LevelGraph,
    RunStats,
    Timer,
    cc_objective,
    cluster_weights,
    compress,
    densify,
    level0,
    louvain,
    map_edge_partitions,
    record_result,
    regime,
)

_MOVES_SCHEMA = StructType(
    [
        StructField("v", LongType(), False),
        StructField("c", LongType(), False),
        StructField("delta", DoubleType(), False),
    ]
)


def _participates(vs: np.ndarray, seed: int) -> np.ndarray:
    """Async-mode per-iteration participation mask (p=0.75).

    Deterministic in (vertex, seed) and independent of partitioning, so
    the driver can recompute exactly which frontier vertices an executor
    skipped (they must stay eligible next iteration).
    """
    h = (vs.astype("uint64") * np.uint64(2654435761) + np.uint64(seed * 97 + 13)) * np.uint64(
        0x9E3779B97F4A7C15
    )
    return (h >> np.uint64(40)).astype("float64") / float(1 << 24) < 0.75


def _active_mask_rows(
    src: np.ndarray,
    dst: np.ndarray,
    n: int,
    all_active: bool,
    aux: np.ndarray | None,
    extra: np.ndarray | None,
) -> np.ndarray:
    """Per-vertex activity resolved locally: v is active if the frontier is
    dense, if v is in ``extra`` (skipped vertices / affected-cluster
    members), or if some neighbor of v is in ``aux`` (movers / members)."""
    if all_active:
        return np.ones(n, dtype=bool)
    act = np.zeros(n, dtype=bool)
    if aux is not None:
        hit = aux[dst]
        if hit.any():
            act[src[hit]] = True
    if extra is not None:
        act |= extra
    return act


def _partition_moves(
    pdf: pd.DataFrame,
    a: np.ndarray,
    K: np.ndarray,
    k: np.ndarray,
    lam: float,
    U: int,
    tol: float,
    all_active: bool,
    aux: np.ndarray | None,
    extra: np.ndarray | None,
    use_async: bool,
    seed: int,
    sample: bool,
) -> pd.DataFrame:
    """Best moves of one edge partition's active vertices.

    Async: random vertex order, moves applied at once to partition-local
    copies of the assignment and ``K_c``. Sync: every vertex against the
    broadcast snapshot.
    """
    src = pdf["src"].to_numpy()
    dst = pdf["dst"].to_numpy()
    n = len(a)
    indptr, nbrs, ws = csr(src, dst, pdf["w"].to_numpy(), n)
    act = _active_mask_rows(src, dst, n, all_active, aux, extra)
    verts = np.flatnonzero((indptr[1:] > indptr[:-1]) & act)
    if use_async and len(verts):
        if sample:
            verts = verts[_participates(verts, seed)]
        # Partition-deterministic order: seed mixes the config seed, the
        # iteration, and this partition's smallest vertex id.
        rng = np.random.default_rng((seed * 1_000_003 + int(src.min())) % (2**63))
        rng.shuffle(verts)
        a = a.copy()
        K = np.concatenate([K, np.zeros(n + 1)])
    vs, cs, ds = sweep(indptr, nbrs, ws, verts, a, K, k, lam, U, tol, update=use_async)
    return pd.DataFrame({"v": vs, "c": cs, "delta": ds})


def _move_pass(
    level: LevelGraph,
    assign: np.ndarray,
    K: np.ndarray,
    U: int,
    lam: float,
    cfg: CCConfig,
    it_seed: int,
    all_active: bool,
    aux: np.ndarray | None,
    extra: np.ndarray | None,
    sample: bool = True,
) -> pd.DataFrame:
    """One BEST-MOVES iteration: broadcast state, mapInPandas, collect moves."""
    sc = level.edges.sparkSession.sparkContext
    bc = sc.broadcast((assign, K, level.k, aux, extra))
    use_async = cfg.async_moves
    tol = cfg.move_tol

    def fn(pdf: pd.DataFrame) -> pd.DataFrame:
        a, Kb, kb, auxb, extrab = bc.value
        return _partition_moves(
            pdf, a, Kb, kb, lam, U, tol, all_active, auxb, extrab, use_async, it_seed, sample
        )

    try:
        return map_edge_partitions(level.edges, fn, _MOVES_SCHEMA).toPandas()
    finally:
        bc.destroy()


def best_moves(
    level: LevelGraph,
    assign_init: np.ndarray,
    lam: float,
    cfg: CCConfig,
    seed_base: int,
) -> tuple[np.ndarray, int, int]:
    """BEST-MOVES (Algorithm 1 lines 1–11) on one level.

    Returns ``(dense assignment, total moves, iterations run)``.
    """
    assign, U = densify(assign_init)
    K = cluster_weights(assign, level.k, U)
    all_active = True
    aux: np.ndarray | None = None
    extra: np.ndarray | None = None
    total_moves = 0
    iters = 0
    for it in range(cfg.effective_num_iter):
        iters = it + 1
        sampled = cfg.async_moves
        moves = _move_pass(
            level, assign, K, U, lam, cfg, seed_base + it, all_active, aux, extra
        )
        if len(moves) == 0 and cfg.async_moves:
            # The random subsample may have missed every movable vertex;
            # confirm convergence with one full-participation pass before
            # breaking (Alg. 1 line 9 assumes all of V' was considered).
            sampled = False
            moves = _move_pass(
                level,
                assign,
                K,
                U,
                lam,
                cfg,
                seed_base + it,
                all_active,
                aux,
                extra,
                sample=False,
            )
        vs = moves["v"].to_numpy()
        cs = moves["c"].to_numpy()
        real = cs != assign[vs]
        vs, cs = vs[real], cs[real]
        if len(vs) == 0:
            break  # Alg. 1 line 9
        old_labels = assign[vs].copy()
        # Frontier vertices the subsample skipped were never considered
        # this iteration — they must stay eligible next iteration.
        skipped = (
            ~_participates(np.arange(level.n), seed_base + it)
            if sampled
            else np.zeros(level.n, dtype=bool)
        )
        assign[vs] = cs
        total_moves += len(vs)
        if cfg.frontier == "all" or len(vs) > 0.5 * level.n:
            # Dense-mode shortcut (EDGEMAP's dense representation): when
            # most vertices moved their neighborhood is ~everything. A
            # superset frontier never changes which moves are available.
            all_active, aux, extra = True, None, None
        elif cfg.frontier == "vertices":
            moved_mask = np.zeros(level.n, dtype=bool)
            moved_mask[vs] = True
            all_active, aux, extra = False, moved_mask, skipped
        else:  # "clusters"
            affected = np.zeros(U + level.n + 1, dtype=bool)
            affected[old_labels] = True
            affected[cs] = True
            members = affected[assign]  # labels still in pre-densify space
            all_active, aux, extra = False, members, members | skipped
        assign, U = densify(assign)
        K = cluster_weights(assign, level.k, U)
    return assign, total_moves, iters


def parallel_cc(
    g: GraphData, cfg: CCConfig, *, compressor: Callable[..., LevelGraph] | None = None
) -> tuple[np.ndarray, RunStats]:
    """Run PAR-CC / PAR-MOD on a graph; returns (assignment, stats).

    ``cfg.objective`` selects the vertex-weight/λ regime (§2); the
    reported objective is the raw CC value for ``"cc"`` and modularity
    ``Q = CC/(2W)`` for ``"modularity"``. ``compressor(level, dense,
    n_clusters, *, partitions)`` replaces PARALLEL-COMPRESS
    (``state.compress``, looked up at call time).
    """
    k0, stats = regime(cfg, degree_array(g), "par")
    lam = stats.lam
    compress_level = partial(compressor or compress, partitions=cfg.partitions)

    def moves(level, assign, depth, refine):  # best_moves looked up per call: a probe seam
        seed_base = cfg.seed * 10_007 + depth * 1_000 + (500 if refine else 0)
        return best_moves(level, assign, lam, cfg, seed_base)

    with Timer() as t:
        lvl0 = level0(g, k0, partitions=cfg.partitions)
    try:
        with Timer() as t_levels:
            assign = louvain(lvl0, moves, compress_level, LevelGraph.unpersist, cfg, stats)
        stats.total_time = t.s + t_levels.s
        record_result(stats, cfg, assign, cc_objective(lvl0, assign, lam))
    finally:
        lvl0.unpersist()
    return assign, stats
