"""SEQUENTIAL-CC (Algorithm 2): the paper's sequential Louvain baseline.

A faithful single-threaded implementation over a driver-side CSR: vertices
are visited in a fresh random permutation each sweep and moved
*immediately* (exact, fully consistent cluster weights — the sequential
dependency the paper proves P-complete to parallelize). Sweeps repeat
while the objective increases, capped at ``num_iter`` unless
``to_convergence`` (the paper's SEQ^CON superscript). The level loop
(compression, flattening, multi-level refinement) is the parallel
engine's, ``state.louvain``, and the neighbors-of-moved-vertices frontier
mirrors it (§4.2 notes the sequential baselines include the applicable
optimizations).

SEQ-CC / SEQ-MOD run here; PAR-CC / PAR-MOD in ``par_louvain``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from ..graphs.gen import GenGraph
from .config import CCConfig
from .moves import csr, sweep
from .state import RunStats, Timer, coarse_weights, densify, louvain, record_result, regime


@dataclass
class CSRLevel:
    """Driver-side level graph: CSR adjacency + the per-vertex state."""

    indptr: np.ndarray
    nbrs: np.ndarray
    ws: np.ndarray
    n: int
    k: np.ndarray
    sq: np.ndarray
    selfw: np.ndarray

    @property
    def m_directed(self) -> int:
        return len(self.nbrs)


def build_csr(edges: pd.DataFrame, n: int, k: np.ndarray) -> CSRLevel:
    """CSR from an undirected (u < v) edge list; selfw=0, sq=k²."""
    u = edges["u"].to_numpy()
    v = edges["v"].to_numpy()
    w = edges["w"].to_numpy()
    indptr, nbrs, ws = csr(
        np.concatenate([u, v]), np.concatenate([v, u]), np.concatenate([w, w]), n
    )
    kk = k.astype("float64")
    return CSRLevel(
        indptr=indptr, nbrs=nbrs, ws=ws, n=n, k=kk, sq=kk**2, selfw=np.zeros(n)
    )


def csr_objective(level: CSRLevel, assign: np.ndarray, lam: float) -> float:
    """Same level-invariant ordered-pair objective as ``state.cc_objective``."""
    src = np.repeat(np.arange(level.n), np.diff(level.indptr))
    same = assign[src] == assign[level.nbrs]
    intra = float(level.ws[same].sum())
    dense, nc = densify(assign)
    K = np.bincount(dense, weights=level.k, minlength=nc)
    return intra + 2.0 * level.selfw.sum() - lam * ((K**2).sum() - level.sq.sum())


def _sweeps(
    level: CSRLevel,
    assign_init: np.ndarray,
    lam: float,
    cfg: CCConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int, int]:
    """Algorithm 2 lines 3–7: random-order immediate best moves.

    Returns (dense assignment, total moves, sweeps run). A sweep with no
    moves terminates (no move ⇔ no objective increase: every applied
    move strictly increases the objective).
    """
    assign = assign_init
    frontier = np.ones(level.n, dtype=bool)
    total_moves = 0
    sweeps = 0
    for _ in range(cfg.effective_num_iter):
        sweeps += 1
        # Re-densify so singleton labels stay compact.
        assign, U = densify(assign)
        K = np.zeros(U + level.n + 1)
        K[:U] = np.bincount(assign, weights=level.k, minlength=U)
        order = rng.permutation(np.flatnonzero(frontier))
        moved, _, _ = sweep(
            level.indptr, level.nbrs, level.ws, order, assign, K, level.k, lam, U,
            cfg.move_tol, update=True,
        )
        if not len(moved):
            break
        total_moves += len(moved)
        if cfg.frontier == "all":
            frontier = np.ones(level.n, dtype=bool)
        else:
            # neighbors of moved vertices (the paper notes the sequential
            # baselines use the applicable optimizations)
            frontier = np.zeros(level.n, dtype=bool)
            for v in moved:
                frontier[level.nbrs[level.indptr[v] : level.indptr[v + 1]]] = True
        if not frontier.any():
            break
    return densify(assign)[0], total_moves, sweeps


def compress_csr(level: CSRLevel, assign_dense: np.ndarray, n_clusters: int) -> CSRLevel:
    """SEQUENTIAL-COMPRESS: pandas groupby aggregation into a new CSR."""
    src = np.repeat(np.arange(level.n), np.diff(level.indptr))
    cs = assign_dense[src]
    cd = assign_dense[level.nbrs]
    df = pd.DataFrame({"s": cs, "d": cd, "w": level.ws})
    agg = df.groupby(["s", "d"], sort=True)["w"].sum().reset_index()
    s, d, w = (agg[c].to_numpy() for c in ("s", "d", "w"))
    loops = s == d
    indptr, nbrs, ws = csr(s[~loops], d[~loops], w[~loops], n_clusters)
    return CSRLevel(
        indptr=indptr,
        nbrs=nbrs,
        ws=ws,
        n=n_clusters,
        **coarse_weights(level, assign_dense, n_clusters, s[loops], w[loops]),
    )


def sequential_cc(g: GenGraph, cfg: CCConfig) -> tuple[np.ndarray, RunStats]:
    """Run SEQ-CC / SEQ-MOD on a generated graph; returns (assignment, stats)."""
    deg = np.zeros(g.n)
    u = g.edges["u"].to_numpy()
    v = g.edges["v"].to_numpy()
    w = g.edges["w"].to_numpy().astype("float64")
    np.add.at(deg, u, w)
    np.add.at(deg, v, w)
    k0, stats = regime(cfg, deg, "seq")
    rng = np.random.default_rng(cfg.seed)
    lvl0 = build_csr(g.edges, g.n, k0)

    def moves(level, assign, depth, refine):  # one rng, in the loop's call order
        return _sweeps(level, assign, stats.lam, cfg, rng)

    with Timer() as t:
        assign = louvain(lvl0, moves, compress_csr, lambda level: None, cfg, stats)
    stats.total_time = t.s
    record_result(stats, cfg, assign, csr_objective(lvl0, assign, stats.lam))
    return assign, stats
