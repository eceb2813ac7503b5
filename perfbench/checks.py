"""Output checks applied to every engine call the benchmark makes.

An assignment must be an integer array of length n with non-negative
labels, and ``RunStats.objective`` / ``reported_objective`` must match an
independent recomputation on the generated edges (``build_csr`` +
``csr_objective``) within 1e-6 relative.
"""
from __future__ import annotations

import hashlib
import math

import numpy as np

from repro.core.config import CCConfig
from repro.core.seq_louvain import build_csr, csr_objective
from repro.core.state import RunStats
from repro.graphs.gen import GenGraph

REL_TOL = 1e-6


def vertex_weights(g: GenGraph, cfg: CCConfig) -> tuple[np.ndarray, float, float]:
    """(k, λ, 2W) of the §2 regime ``cfg.objective`` selects."""
    deg = np.zeros(g.n)
    w = g.edges["w"].to_numpy().astype("float64")
    np.add.at(deg, g.edges["u"].to_numpy(), w)
    np.add.at(deg, g.edges["v"].to_numpy(), w)
    two_w = float(deg.sum())
    if cfg.objective == "modularity":
        return deg, (cfg.resolution / two_w if two_w > 0 else 0.0), two_w
    return np.ones(g.n), cfg.resolution, two_w


def check_output(g: GenGraph, cfg: CCConfig, assign, stats: RunStats) -> list[str]:
    """Problems with one engine output; an empty list means it passed."""
    a = np.asarray(assign)
    if a.ndim != 1 or len(a) != g.n:
        return [f"assignment shape {a.shape}, want ({g.n},)"]
    if not np.issubdtype(a.dtype, np.integer):
        return [f"assignment dtype {a.dtype} is not integer"]
    if len(a) and a.min() < 0:
        return ["negative cluster label"]
    k, lam, two_w = vertex_weights(g, cfg)
    want = csr_objective(build_csr(g.edges, g.n, k), a, lam)
    problems = []
    if not math.isclose(stats.objective, want, rel_tol=REL_TOL, abs_tol=1e-9):
        problems.append(f"objective {stats.objective!r} != recomputed {want!r}")
    reported = want / two_w if cfg.objective == "modularity" and two_w > 0 else want
    if not math.isclose(stats.reported_objective, reported, rel_tol=REL_TOL, abs_tol=1e-12):
        problems.append(
            f"reported objective {stats.reported_objective!r} != recomputed {reported!r}"
        )
    return problems


def assignment_sha256(assign) -> str:
    """Digest of the assignment as little-endian int64, for fixed-seed diffs."""
    return hashlib.sha256(np.ascontiguousarray(assign, dtype="<i8").tobytes()).hexdigest()
