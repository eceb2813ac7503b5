"""Property-based invariants of the LambdaCC framework (hypothesis).

These are the load-bearing algebraic facts the whole hierarchy rests on:
compression preserves the objective for *any* clustering, the move-delta
formula equals the true objective difference for *any* single move, and
the modularity mapping holds for *any* γ.
"""
import numpy as np
import pandas as pd
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.moves import best_move, csr, sweep
from repro.core.seq_louvain import build_csr, compress_csr, csr_objective
from repro.core.state import densify
from repro.graphs.gen import GenGraph

from tests.helpers import brute_cc, brute_modularity


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=3, max_value=14))
    max_edges = n * (n - 1) // 2
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(
        st.lists(
            st.sampled_from(pairs), min_size=1, max_size=min(max_edges, 30), unique=True
        )
    )
    ws = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
            min_size=len(chosen),
            max_size=len(chosen),
        )
    )
    pdf = pd.DataFrame(
        {"u": [p[0] for p in chosen], "v": [p[1] for p in chosen], "w": ws}
    )
    return GenGraph(name="hyp", n=n, edges=pdf)


@st.composite
def graph_and_assign(draw):
    g = draw(graphs())
    labels = draw(
        st.lists(
            st.integers(min_value=0, max_value=4), min_size=g.n, max_size=g.n
        )
    )
    return g, np.asarray(labels, dtype="int64")


_SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestObjectiveProperties:
    @given(ga=graph_and_assign(), lam=st.floats(0.0, 1.0, allow_nan=False))
    @_SETTINGS
    def test_csr_matches_brute(self, ga, lam):
        g, assign = ga
        csr = build_csr(g.edges, g.n, np.ones(g.n))
        assert abs(csr_objective(csr, assign, lam) - brute_cc(g, assign, lam)) < 1e-8

    @given(ga=graph_and_assign(), lam=st.floats(0.0, 1.0, allow_nan=False))
    @_SETTINGS
    def test_compress_preserves_objective(self, ga, lam):
        g, assign = ga
        csr = build_csr(g.edges, g.n, np.ones(g.n))
        dense, nc = densify(assign)
        child = compress_csr(csr, dense, nc)
        got = csr_objective(child, np.arange(nc), lam)
        exp = csr_objective(csr, dense, lam)
        assert abs(got - exp) < 1e-8

    @given(
        ga=graph_and_assign(),
        lam=st.floats(0.0, 1.0, allow_nan=False),
        coarse_seed=st.integers(0, 100),
    )
    @_SETTINGS
    def test_flatten_preserves_objective(self, ga, lam, coarse_seed):
        g, assign = ga
        csr = build_csr(g.edges, g.n, np.ones(g.n))
        dense, nc = densify(assign)
        child = compress_csr(csr, dense, nc)
        coarse = np.random.default_rng(coarse_seed).integers(0, 3, size=nc)
        assert (
            abs(
                csr_objective(child, coarse, lam)
                - csr_objective(csr, coarse[dense], lam)
            )
            < 1e-8
        )

    @given(ga=graph_and_assign(), gamma=st.floats(0.1, 2.0, allow_nan=False))
    @_SETTINGS
    def test_modularity_mapping(self, ga, gamma):
        g, assign = ga
        deg = np.zeros(g.n)
        np.add.at(deg, g.edges["u"].to_numpy(), g.edges["w"].to_numpy())
        np.add.at(deg, g.edges["v"].to_numpy(), g.edges["w"].to_numpy())
        two_m = deg.sum()
        csr = build_csr(g.edges, g.n, deg)
        cc = csr_objective(csr, assign, gamma / two_m)
        assert abs(cc / two_m - brute_modularity(g, assign, gamma)) < 1e-8


class TestMoveDeltaProperty:
    @given(
        ga=graph_and_assign(),
        lam=st.floats(0.0, 1.0, allow_nan=False),
        v=st.integers(0, 13),
        target=st.integers(0, 5),
    )
    @_SETTINGS
    def test_delta_formula_equals_objective_difference(self, ga, lam, v, target):
        """The appendix's Δ formula == CC(after) − CC(before) for any move."""
        g, assign = ga
        v = v % g.n
        csr = build_csr(g.edges, g.n, np.ones(g.n))
        dense, nc = densify(assign)
        cv = dense[v]
        c_new = target % (nc + 1)  # nc == fresh singleton
        if c_new == cv:
            return
        K = np.bincount(dense, weights=csr.k, minlength=nc + 1)
        lo, hi = csr.indptr[v], csr.indptr[v + 1]
        nbr_c = dense[csr.nbrs[lo:hi]]
        w_own = csr.ws[lo:hi][nbr_c == cv].sum()
        w_new = csr.ws[lo:hi][nbr_c == c_new].sum()
        kv = csr.k[v]
        delta = (w_new - lam * kv * K[c_new]) - (w_own - lam * kv * (K[cv] - kv))
        before = csr_objective(csr, dense, lam)
        moved = dense.copy()
        moved[v] = c_new
        after = csr_objective(csr, moved, lam)
        # Ordered-pair objective counts each unordered pair twice.
        assert abs((after - before) - 2.0 * delta) < 1e-8

    @given(
        ga=graph_and_assign(),
        lam=st.floats(0.0, 1.0, allow_nan=False),
        v=st.integers(0, 13),
    )
    @_SETTINGS
    def test_best_move_is_exact_and_unbeaten(self, ga, lam, v):
        """``best_move``'s Δ is half the true objective change of the move it
        picks, and no cluster, nor the detach, gains more."""
        g, assign = ga
        v = v % g.n
        csr_level = build_csr(g.edges, g.n, np.ones(g.n))
        lo, hi = csr_level.indptr[v], csr_level.indptr[v + 1]
        if lo == hi:
            return
        dense, nc = densify(assign)
        K = np.bincount(dense, weights=csr_level.k, minlength=nc)
        c, delta = best_move(
            dense[csr_level.nbrs[lo:hi]], csr_level.ws[lo:hi], dense[v], csr_level.k[v],
            K, lam, nc,  # nc: a label no cluster uses, standing in for U + v
        )
        before = csr_objective(csr_level, dense, lam)

        def gain(target: int) -> float:
            moved = dense.copy()
            moved[v] = target
            return csr_objective(csr_level, moved, lam) - before

        assert c != dense[v]
        assert abs(gain(c) - 2.0 * delta) < 1e-8
        for cand in range(nc + 1):
            if cand != dense[v]:
                assert gain(cand) <= 2.0 * delta + 1e-8

    def test_best_move_ties(self):
        """Equal gains go to the smallest cluster id; a detach (label 2 here)
        with equal gain loses and wins only when strictly better."""
        K = np.array([1.0, 1.0, 1.0])
        assert best_move(np.array([2, 1]), np.array([1.0, 1.0]), 0, 1.0, K, 0.0, 3) == (1, 1.0)
        # v has no edge into its cluster 0 (weight 4): detaching gains λ·kv·3 = 1.5.
        K = np.array([4.0, 4.0])
        assert best_move(np.array([1]), np.array([2.0]), 0, 1.0, K, 0.5, 2) == (1, 1.5)
        assert best_move(np.array([1]), np.array([1.9]), 0, 1.0, K, 0.5, 2) == (2, 1.5)

    def test_sweep_update_vs_snapshot(self):
        """Figure 1 on one edge at λ=0: judged against one snapshot both
        singletons swap clusters; with immediate updates only the first moves."""
        indptr, nbrs, ws = csr(np.array([0, 1]), np.array([1, 0]), np.array([1.0, 1.0]), 2)
        k = np.ones(2)
        for update, expect in ((False, ([0, 1], [1, 0])), (True, ([0], [1]))):
            a, K = np.arange(2), np.array([1.0, 1.0, 0.0, 0.0, 0.0])
            vs, cs, ds = sweep(
                indptr, nbrs, ws, np.arange(2), a, K, k, 0.0, 2, 1e-9, update=update
            )
            assert (vs.tolist(), cs.tolist()) == expect
            np.testing.assert_array_equal(ds, 1.0)
