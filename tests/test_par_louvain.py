"""Tests for PARALLEL-CC / PAR-MOD (core.par_louvain): correctness of the
dataflow vertex program, all three §3.2 optimization axes, and agreement
with the sequential engine."""
import numpy as np
import pandas as pd
import pytest
from pyspark import StorageLevel

from repro.baselines.networkit_like import driver_python_compress
from repro.core.config import CCConfig
from repro.core.par_louvain import best_moves, parallel_cc
from repro.core.seq_louvain import build_csr, csr_objective, sequential_cc
from repro.core.state import cc_objective, level0
from repro.graphs.gen import GenGraph, karate, planted_partition
from repro.graphs.ops import to_spark

from tests.helpers import brute_cc, small_weighted_graph


def _two_cliques() -> GenGraph:
    rows = [(i, j, 1.0) for i in range(4) for j in range(i + 1, 4)]
    rows += [(i, j, 1.0) for i in range(4, 8) for j in range(i + 1, 8)]
    rows.append((3, 4, 0.5))
    return GenGraph(name="cliques", n=8, edges=pd.DataFrame(rows, columns=["u", "v", "w"]))


@pytest.fixture(scope="module")
def medium_graph():
    return planted_partition(600, avg_deg=8, mixing=0.3, seed=20)


class TestBestMoves:
    @pytest.mark.parametrize("async_moves", [False, True])
    def test_two_cliques(self, spark, async_moves):
        g = _two_cliques()
        gd = to_spark(spark, g, partitions=2)
        lvl = level0(gd, np.ones(g.n), partitions=2)
        cfg = CCConfig(resolution=0.4, num_iter=10, async_moves=async_moves, seed=1)
        assign, moves, _ = best_moves(lvl, np.arange(g.n), 0.4, cfg, seed_base=1)
        assert moves > 0
        assert len(set(assign[:4])) == 1 and len(set(assign[4:])) == 1
        assert assign[0] != assign[7]
        lvl.unpersist()

    @pytest.mark.parametrize("async_moves", [False, True])
    @pytest.mark.parametrize("lam", [0.1, 0.7])
    def test_moves_improve_objective(self, spark, async_moves, lam):
        g = planted_partition(200, avg_deg=8, mixing=0.3, seed=21)
        gd = to_spark(spark, g, partitions=4)
        lvl = level0(gd, np.ones(g.n), partitions=4)
        cfg = CCConfig(resolution=lam, num_iter=10, async_moves=async_moves, seed=2)
        assign, moves, _ = best_moves(lvl, np.arange(g.n), lam, cfg, seed_base=2)
        obj = cc_objective(lvl, assign, lam)
        if async_moves:
            # §4.1: "in the asynchronous setting, the objective is always
            # positive" (singletons score exactly 0).
            assert obj > 0.0
        else:
            # The paper reports sync often lands on poor, even negative,
            # objective — only require a finite, non-pathological result.
            assert np.isfinite(obj)
        lvl.unpersist()

    def test_async_single_partition_matches_delta_semantics(self, spark):
        """With one partition, async == fully sequential immediate moves, so
        every emitted move's delta must equal the true objective change."""
        g = small_weighted_graph(22, n=18, avg_deg=4)
        gd = to_spark(spark, g, partitions=1)
        lvl = level0(gd, np.ones(g.n), partitions=1)
        lam = 0.3
        cfg = CCConfig(resolution=lam, num_iter=1, async_moves=True, seed=3)
        csr = build_csr(g.edges, g.n, np.ones(g.n))
        before = csr_objective(csr, np.arange(g.n), lam)
        assign, _, _ = best_moves(lvl, np.arange(g.n), lam, cfg, seed_base=3)
        after = csr_objective(csr, assign, lam)
        # One sequential iteration strictly improves (or leaves) the objective.
        assert after >= before - 1e-9
        lvl.unpersist()

    def test_frontier_all_equivalent_to_vertices_on_converged(self, spark):
        g = _two_cliques()
        gd = to_spark(spark, g, partitions=2)
        lvl = level0(gd, np.ones(g.n), partitions=2)
        out = {}
        for frontier in ("all", "vertices", "clusters"):
            cfg = CCConfig(resolution=0.4, num_iter=20, frontier=frontier, seed=4)
            assign, _, _ = best_moves(lvl, np.arange(g.n), 0.4, cfg, seed_base=4)
            out[frontier] = cc_objective(lvl, assign, 0.4)
        assert out["all"] == pytest.approx(out["vertices"], rel=1e-6)
        assert out["all"] == pytest.approx(out["clusters"], rel=1e-6)
        lvl.unpersist()


class TestParallelCC:
    @pytest.mark.parametrize("async_moves", [False, True])
    def test_objective_positive_and_matches_recompute(self, spark, medium_graph, async_moves):
        cfg = CCConfig(resolution=0.3, num_iter=5, async_moves=async_moves, seed=5, partitions=4)
        assign, stats = parallel_cc(to_spark(spark, medium_graph, partitions=4), cfg)
        if async_moves:
            assert stats.objective > 0
        csr = build_csr(medium_graph.edges, medium_graph.n, np.ones(medium_graph.n))
        assert stats.objective == pytest.approx(csr_objective(csr, assign, 0.3), rel=1e-9)
        assert stats.n_clusters == len(np.unique(assign))

    def test_matches_sequential_quality(self, spark, medium_graph):
        """PAR-CC's objective should be within a few percent of SEQ-CC's
        (the paper reports 0.95–1.08x)."""
        cfg = CCConfig(resolution=0.25, num_iter=10, seed=6, partitions=4)
        _, s_par = parallel_cc(to_spark(spark, medium_graph, partitions=4), cfg)
        _, s_seq = sequential_cc(medium_graph, cfg.with_(to_convergence=True))
        assert s_par.objective >= 0.85 * s_seq.objective

    def test_recovers_planted_communities(self, spark):
        g = planted_partition(500, avg_deg=10, mixing=0.15, seed=23)
        cfg = CCConfig(resolution=0.1, num_iter=10, seed=7, partitions=4)
        assign, _ = parallel_cc(to_spark(spark, g, partitions=4), cfg)
        from repro.eval.quality import avg_precision_recall

        prec, rec = avg_precision_recall(g.gt_communities(), assign)
        assert prec > 0.8 and rec > 0.8

    def test_modularity_mode(self, spark):
        g = karate()
        cfg = CCConfig(
            resolution=1.0, objective="modularity", num_iter=10, seed=8, partitions=2
        )
        assign, stats = parallel_cc(to_spark(spark, g, partitions=2), cfg)
        assert 0.35 <= stats.reported_objective <= 0.48
        assert stats.n_clusters <= 8

    def test_resolution_controls_cluster_count(self, spark, medium_graph):
        gd = to_spark(spark, medium_graph, partitions=4)
        lo_cfg = CCConfig(resolution=0.01, num_iter=5, seed=9, partitions=4)
        hi_cfg = CCConfig(resolution=0.9, num_iter=5, seed=9, partitions=4)
        _, s_lo = parallel_cc(gd, lo_cfg)
        _, s_hi = parallel_cc(gd, hi_cfg)
        assert s_hi.n_clusters > s_lo.n_clusters

    def test_refinement_tracked_and_does_not_hurt(self, spark, medium_graph):
        gd = to_spark(spark, medium_graph, partitions=4)
        cfg = CCConfig(resolution=0.6, num_iter=3, seed=10, partitions=4)
        _, s_ref = parallel_cc(gd, cfg)
        _, s_noref = parallel_cc(gd, cfg.with_(refine=False))
        if len(s_ref.levels) > 1:
            assert any(l.refine_iters > 0 for l in s_ref.levels)
        assert all(l.refine_iters == 0 for l in s_noref.levels)
        assert s_ref.objective >= s_noref.objective - 1e-6

    def test_memory_stats_monotone(self, spark, medium_graph):
        gd = to_spark(spark, medium_graph, partitions=4)
        cfg = CCConfig(resolution=0.3, num_iter=5, seed=11, partitions=4)
        _, stats = parallel_cc(gd, cfg)
        assert stats.retained_edges_refine >= stats.retained_edges_norefine
        assert stats.levels[0].m_directed == 2 * medium_graph.m

    def test_driver_python_compress_same_result_shape(self, spark):
        g = planted_partition(300, avg_deg=6, mixing=0.3, seed=24)
        gd = to_spark(spark, g, partitions=4)
        cfg = CCConfig(resolution=0.3, num_iter=5, seed=12, partitions=4)
        a1, s1 = parallel_cc(gd, cfg)
        a2, s2 = parallel_cc(gd, cfg, compressor=driver_python_compress)
        # Same engine, same seed: identical clustering either way.
        np.testing.assert_array_equal(a1, a2)
        assert s1.objective == pytest.approx(s2.objective, rel=1e-9)


def _counting(module, name, calls):
    orig = getattr(module, name)

    def wrapper(*a, **kw):
        calls[name] += 1
        return orig(*a, **kw)

    return wrapper


class TestEngineSeams:
    def test_layer_seams_are_called(self, spark, monkeypatch):
        """The per-layer benchmark trace wraps these ``par_louvain`` and
        ``seq_louvain`` globals; an engine that stopped calling them would
        silently blind it."""
        from repro.core import par_louvain, seq_louvain

        calls = {"map_edge_partitions": 0, "compress": 0, "best_moves": 0, "compress_csr": 0}
        for name in ("map_edge_partitions", "compress", "best_moves"):
            monkeypatch.setattr(par_louvain, name, _counting(par_louvain, name, calls))
        monkeypatch.setattr(
            seq_louvain, "compress_csr", _counting(seq_louvain, "compress_csr", calls)
        )
        g = _two_cliques()
        cfg = CCConfig(resolution=0.4, num_iter=5, seed=1, partitions=2)
        assign, _ = parallel_cc(to_spark(spark, g, partitions=2), cfg)
        assert len(np.unique(assign)) == 2
        assign, _ = sequential_cc(g, cfg)
        assert len(np.unique(assign)) == 2
        assert calls["map_edge_partitions"] > 0
        assert calls["compress"] > 0
        assert calls["best_moves"] > 0
        assert calls["compress_csr"] > 0


def _persisted(spark) -> int:
    return len(spark.sparkContext._jsc.getPersistentRDDs())


class TestLevelLifetime:
    """Cached level RDDs, counted at each ``compress`` return on a graph
    that coarsens through 4 levels (120 vertices, one move iteration per
    level). Counts are relative to what the session held before the call."""

    @pytest.fixture(scope="class")
    def deep(self):
        return planted_partition(120, avg_deg=6, mixing=0.3, seed=20)

    @staticmethod
    def _cfg(refine: bool) -> CCConfig:
        return CCConfig(
            resolution=0.1, num_iter=1, seed=3, partitions=2, max_levels=4, refine=refine
        )

    def _held_at_compress(self, spark, monkeypatch, g, cfg):
        from repro.core import par_louvain

        orig = par_louvain.compress
        base = _persisted(spark)
        held = []

        def counting(*a, **kw):
            out = orig(*a, **kw)
            held.append(_persisted(spark) - base)
            return out

        monkeypatch.setattr(par_louvain, "compress", counting)
        _, stats = parallel_cc(to_spark(spark, g, partitions=2), cfg)
        assert len(stats.levels) == 4
        assert _persisted(spark) == base
        return held

    def test_norefine_holds_level0_and_two_adjacent_levels(self, spark, monkeypatch, deep):
        held = self._held_at_compress(spark, monkeypatch, deep, self._cfg(refine=False))
        assert held == [2, 3, 3]

    def test_refine_holds_every_level_down_to_the_new_one(self, spark, monkeypatch, deep):
        held = self._held_at_compress(spark, monkeypatch, deep, self._cfg(refine=True))
        assert held == [2, 3, 4]  # new level at depth d: d + 1 levels held

    @pytest.mark.parametrize("refine", [False, True])
    def test_nothing_cached_after_an_error(self, spark, monkeypatch, deep, refine):
        from repro.core import par_louvain

        orig = par_louvain.best_moves
        calls = []

        def failing(*a, **kw):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("injected")
            return orig(*a, **kw)

        monkeypatch.setattr(par_louvain, "best_moves", failing)
        base = _persisted(spark)
        with pytest.raises(RuntimeError, match="injected"):
            parallel_cc(to_spark(spark, deep, partitions=2), self._cfg(refine))
        assert _persisted(spark) == base

    def test_caller_cached_input_stays_cached(self, spark, deep):
        gd = to_spark(spark, deep, partitions=2)
        gd.edges.cache().count()
        before = gd.edges.storageLevel
        try:
            parallel_cc(gd, self._cfg(refine=False))
            assert gd.edges.storageLevel == before != StorageLevel.NONE
        finally:
            gd.edges.unpersist()


def _run_engine(engine: str, spark, g: GenGraph, cfg: CCConfig):
    if engine == "parallel_cc":
        return parallel_cc(to_spark(spark, g, partitions=cfg.partitions), cfg)
    return sequential_cc(g, cfg)


def _graph(name: str, n: int, rows: list[tuple[int, int, float]]) -> GenGraph:
    edges = pd.DataFrame(rows, columns=["u", "v", "w"]).astype(
        {"u": "int64", "v": "int64", "w": "float64"}
    )
    return GenGraph(name=name, n=n, edges=edges)


@pytest.mark.parametrize("engine", ["parallel_cc", "sequential_cc"])
class TestEdgeCases:
    """Defined results on degenerate inputs, for both engines."""

    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_edge_free_graph_stays_singletons(self, spark, engine, n):
        assign, stats = _run_engine(engine, spark, _graph("empty", n, []), CCConfig(partitions=2))
        np.testing.assert_array_equal(assign, np.arange(n))
        assert stats.objective == 0.0 and stats.n_clusters == n

    def test_zero_resolution_merges_karate(self, spark, engine):
        g = karate()
        assign, stats = _run_engine(engine, spark, g, CCConfig(resolution=0.0, seed=1, partitions=2))
        assert len(np.unique(assign)) == 1
        assert stats.objective == pytest.approx(2 * g.m) == 156

    def test_more_partitions_than_vertices(self, spark, engine):
        g = _graph("path", 3, [(0, 1, 1.0), (1, 2, 1.0)])
        cfg = CCConfig(resolution=0.1, seed=1, partitions=8)
        assign, stats = _run_engine(engine, spark, g, cfg)
        assert len(assign) == 3
        assert stats.objective == pytest.approx(brute_cc(g, assign, 0.1)) and stats.objective > 0


class TestSyncVsAsync:
    def test_sync_lockstep_pathology_possible_async_breaks_it(self, spark):
        """Figure 1's scenario: a path a-b-c at λ=0. In sync mode b and c can
        pick each other's/old clusters in lockstep; async (sequential within
        a partition) settles into one cluster with positive objective."""
        edges = pd.DataFrame({"u": [0, 0], "v": [1, 2], "w": [1.0, 1.0]})
        g = GenGraph(name="star", n=3, edges=edges)
        gd = to_spark(spark, g, partitions=1)
        lvl = level0(gd, np.ones(3), partitions=1)
        cfg = CCConfig(resolution=0.0, num_iter=10, async_moves=True, seed=13)
        assign, _, _ = best_moves(lvl, np.arange(3), 0.0, cfg, seed_base=13)
        assert len(np.unique(assign)) == 1  # all three merge at λ=0
        lvl.unpersist()

    def test_async_objective_at_least_sync_on_average(self, spark):
        """§4.1's headline: async maintains or improves the objective."""
        g = planted_partition(500, avg_deg=12, mixing=0.4, seed=25)
        gd = to_spark(spark, g, partitions=4)
        deltas = []
        for seed in (0, 1):
            cfg = CCConfig(resolution=0.85, num_iter=5, seed=seed, partitions=4, refine=False)
            _, s_async = parallel_cc(gd, cfg.with_(async_moves=True))
            _, s_sync = parallel_cc(gd, cfg.with_(async_moves=False))
            deltas.append(s_async.objective - s_sync.objective)
        assert np.mean(deltas) > -1e-6
