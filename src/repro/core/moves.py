"""The appendix's local move: the one copy of the move-delta rule.

For a vertex ``v`` in cluster ``cv`` with weight ``kv``, edge weight
``w(v, c)`` into cluster ``c`` and cluster weights ``K``, moving ``v`` to
``c`` changes the (unordered-pair) CC objective by::

    Δ(v → c) = [w(v, c) − λ·kv·K_c] − [w(v, cv) − λ·kv·(K_cv − kv)]

and detaching it into a fresh singleton (label ``U + v``) by the second
bracket negated. SEQUENTIAL-CC (Alg. 2) and both PARALLEL-CC modes
(Alg. 1) differ only in the order they visit vertices and in whether a
move is seen by the vertices after it; ``sweep`` takes both as arguments.
"""
from __future__ import annotations

import numpy as np


def csr(
    src: np.ndarray, dst: np.ndarray, w: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(indptr, nbrs, ws)`` over vertices ``[0, n)`` from directed edge rows.

    The sort is stable, so each vertex keeps its edges in input order.
    """
    order = np.argsort(src, kind="stable")
    indptr = np.zeros(n + 1, dtype="int64")
    indptr[1:] = np.cumsum(np.bincount(src, minlength=n))
    return indptr, dst[order], w[order].astype("float64")


def best_move(
    cd: np.ndarray,
    w: np.ndarray,
    cv: int,
    kv: float,
    K: np.ndarray,
    lam: float,
    fresh: int,
) -> tuple[int, float]:
    """Best target ``(c, Δ)`` for a vertex with neighbour clusters ``cd``.

    ``w`` are the matching edge weights (at least one), ``fresh`` the
    vertex's singleton label ``U + v``. Ties go to the smallest cluster
    id, and the detach wins only when strictly better: Figure 1's
    synchronous lockstep relies on ties resolving identically.
    """
    uniq, inv = np.unique(cd, return_inverse=True)
    wvc = np.bincount(inv, weights=w)
    own = uniq == cv
    base = wvc[own].sum() - lam * kv * (K[cv] - kv)
    deltas = (wvc - lam * kv * K[uniq]) - base
    deltas[own] = -np.inf
    j = int(np.argmax(deltas))
    if -base > deltas[j]:
        return fresh, float(-base)
    return int(uniq[j]), float(deltas[j])


def sweep(
    indptr: np.ndarray,
    nbrs: np.ndarray,
    ws: np.ndarray,
    order: np.ndarray,
    a: np.ndarray,
    K: np.ndarray,
    k: np.ndarray,
    lam: float,
    U: int,
    tol: float,
    *,
    update: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Visit ``order`` over the CSR and return the moves ``(v, c, Δ)`` with Δ > tol.

    With ``update`` each move is applied to ``a`` and ``K`` at once, so
    later vertices see it (``K`` then needs room for labels up to
    ``U + n``); without it every vertex is judged against the same
    snapshot. Vertices without edges are skipped.
    """
    vs: list[int] = []
    cs: list[int] = []
    ds: list[float] = []
    for v in order:
        lo, hi = indptr[v], indptr[v + 1]
        if lo == hi:
            continue
        cv, kv = a[v], k[v]
        c, d = best_move(a[nbrs[lo:hi]], ws[lo:hi], cv, kv, K, lam, U + int(v))
        if d > tol:
            if update:
                K[cv] -= kv
                K[c] += kv
                a[v] = c
            vs.append(int(v))
            cs.append(c)
            ds.append(d)
    return np.asarray(vs, "int64"), np.asarray(cs, "int64"), np.asarray(ds, "float64")
