"""Tests for the synthetic graph generators (graphs.gen)."""
import numpy as np
import pandas as pd
import pytest

from repro.graphs import gen


def _check_canonical(edges: pd.DataFrame, n: int) -> None:
    u = edges["u"].to_numpy()
    v = edges["v"].to_numpy()
    assert (u < v).all(), "edges must be canonical u < v"
    assert u.min() >= 0 and v.max() < n
    assert not edges.duplicated(["u", "v"]).any()
    assert (edges["w"].to_numpy() > 0).all() or len(edges) == 0


class TestRmat:
    def test_basic_shape(self):
        g = gen.rmat(10, 3000, seed=1)
        assert g.n == 1024
        assert 0 < g.m <= 3000
        _check_canonical(g.edges, g.n)

    def test_deterministic(self):
        a = gen.rmat(9, 1000, seed=7)
        b = gen.rmat(9, 1000, seed=7)
        pd.testing.assert_frame_equal(a.edges, b.edges)

    def test_seed_changes_graph(self):
        a = gen.rmat(9, 1000, seed=7)
        b = gen.rmat(9, 1000, seed=8)
        assert not a.edges.equals(b.edges)

    def test_skew(self):
        # rMAT with a=0.5 concentrates mass on low vertex ids.
        g = gen.rmat(11, 8000, seed=3)
        deg = np.zeros(g.n)
        np.add.at(deg, g.edges["u"].to_numpy(), 1)
        np.add.at(deg, g.edges["v"].to_numpy(), 1)
        # P(endpoint in first quarter) = (a+b)^2 = 0.36 >> uniform 0.25.
        low = deg[: g.n // 4].sum()
        assert low > deg.sum() * 0.3

    def test_requested_m_is_cap(self):
        g = gen.rmat(8, 500, seed=2)
        assert g.m <= 500


class TestPlantedPartition:
    def test_ground_truth_partitions_vertices(self):
        g = gen.planted_partition(2000, avg_deg=8, mixing=0.3, seed=5)
        assert g.gt is not None and len(g.gt) == g.n
        comms = g.gt_communities()
        assert sum(len(c) for c in comms) == g.n
        _check_canonical(g.edges, g.n)

    def test_density_close_to_requested(self):
        g = gen.planted_partition(4000, avg_deg=10, mixing=0.3, seed=6)
        realized = 2 * g.m / g.n
        assert 7.0 <= realized <= 11.0

    def test_mixing_controls_intra_fraction(self):
        lo = gen.planted_partition(3000, avg_deg=10, mixing=0.1, seed=9)
        hi = gen.planted_partition(3000, avg_deg=10, mixing=0.6, seed=9)

        def intra_frac(g):
            same = g.gt[g.edges["u"].to_numpy()] == g.gt[g.edges["v"].to_numpy()]
            return same.mean()

        assert intra_frac(lo) > intra_frac(hi) + 0.2

    def test_deterministic(self):
        a = gen.planted_partition(1000, avg_deg=6, mixing=0.3, seed=4)
        b = gen.planted_partition(1000, avg_deg=6, mixing=0.3, seed=4)
        pd.testing.assert_frame_equal(a.edges, b.edges)
        assert (a.gt == b.gt).all()

    def test_community_size_bounds(self):
        g = gen.planted_partition(2000, avg_deg=6, mixing=0.3, cmin=10, cmax=50, seed=2)
        sizes = np.array([len(c) for c in g.gt_communities()])
        # The last community may be truncated to fit n.
        assert (sizes[:-1] >= 10).all() and (sizes <= 50).all()


class TestLiteSuite:
    def test_all_graphs_build(self):
        suite = gen.lite_suite(["amazon-lite", "dblp-lite"])
        assert set(suite) == {"amazon-lite", "dblp-lite"}
        for g in suite.values():
            _check_canonical(g.edges, g.n)
            assert g.gt is not None

    def test_density_ordering_matches_snap(self):
        # orkut is the densest of the small four in the paper's Table 1.
        suite = gen.lite_suite(["amazon-lite", "dblp-lite", "lj-lite", "orkut-lite"])
        dens = {k: 2 * v.m / v.n for k, v in suite.items()}
        assert dens["amazon-lite"] < dens["dblp-lite"] < dens["lj-lite"] < dens["orkut-lite"]

    def test_friendster_lite_small_communities(self):
        g = gen.lite_graph("friendster-lite")
        sizes = [len(c) for c in g.gt_communities()]
        assert np.mean(sizes) < 30

    def test_twitter_lite_huge_communities(self):
        g = gen.lite_graph("twitter-lite")
        sizes = [len(c) for c in g.gt_communities()]
        assert max(sizes) > 400


class TestKarate:
    def test_sizes(self):
        g = gen.karate()
        assert g.n == 34 and g.m == 78
        _check_canonical(g.edges, g.n)

    def test_hubs(self):
        g = gen.karate()
        deg = np.zeros(g.n)
        np.add.at(deg, g.edges["u"].to_numpy(), 1)
        np.add.at(deg, g.edges["v"].to_numpy(), 1)
        assert deg[33] == 17 and deg[0] == 16  # the two factions' hubs


class TestKnn:
    def test_blobs_shapes(self):
        ps = gen.blobs(n=200, n_classes=5, dim=8, seed=1)
        assert ps.points.shape == (200, 8)
        assert set(np.unique(ps.labels)) <= set(range(5))

    def test_knn_graph_weights_are_cosine(self):
        ps = gen.blobs(n=120, n_classes=3, dim=6, seed=2)
        g = gen.knn_graph(ps, k=10)
        _check_canonical(g.edges, g.n)
        assert (g.edges["w"] <= 1.0 + 1e-9).all()
        assert (g.edges["w"] >= 0.0).all()

    def test_knn_graph_degree_at_least_k_after_symmetrization(self):
        ps = gen.blobs(n=100, n_classes=2, dim=4, seed=3)
        k = 7
        g = gen.knn_graph(ps, k=k)
        deg = np.zeros(g.n)
        np.add.at(deg, g.edges["u"].to_numpy(), 1)
        np.add.at(deg, g.edges["v"].to_numpy(), 1)
        assert (deg >= k).all()  # symmetrized union can only add edges

    def test_knn_mostly_intra_class(self):
        ps = gen.digits_like()
        g = gen.knn_graph(ps, k=10)
        same = ps.labels[g.edges["u"].to_numpy()] == ps.labels[g.edges["v"].to_numpy()]
        assert same.mean() > 0.9

    def test_datasets_match_paper_scale(self):
        assert gen.digits_like().points.shape[0] == 1797
        assert gen.letter_like().labels.max() == 25

