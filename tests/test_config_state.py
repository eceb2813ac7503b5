"""Tests for CCConfig validation and the state/stats plumbing."""
import numpy as np
import pandas as pd
import pytest

from repro.core.config import CCConfig
from repro.core.state import (
    LevelStats,
    RunStats,
    Timer,
    cluster_weights,
    densify,
    flatten,
)


class TestCCConfig:
    def test_defaults_match_paper(self):
        cfg = CCConfig()
        assert cfg.num_iter == 10  # paper: num_iter = 10 unless stated
        assert cfg.async_moves and cfg.frontier == "vertices" and cfg.refine

    @pytest.mark.parametrize("bad", ["foo", "modul", ""])
    def test_rejects_unknown_objective(self, bad):
        with pytest.raises(ValueError):
            CCConfig(objective=bad)

    @pytest.mark.parametrize("bad", ["nbrs", "vertex", ""])
    def test_rejects_unknown_frontier(self, bad):
        with pytest.raises(ValueError):
            CCConfig(frontier=bad)

    def test_rejects_negative_resolution(self):
        with pytest.raises(ValueError):
            CCConfig(resolution=-0.1)

    @pytest.mark.parametrize("field", ["num_iter", "max_levels", "partitions"])
    @pytest.mark.parametrize("bad", [0, -1])
    def test_rejects_counts_below_one(self, field, bad):
        with pytest.raises(ValueError, match=field):
            CCConfig(**{field: bad})
        assert getattr(CCConfig(**{field: 1}), field) == 1

    def test_with_returns_new_frozen_copy(self):
        cfg = CCConfig(resolution=0.2)
        cfg2 = cfg.with_(resolution=0.7, refine=False)
        assert cfg.resolution == 0.2 and cfg2.resolution == 0.7
        assert cfg.refine and not cfg2.refine

    def test_effective_num_iter(self):
        assert CCConfig(num_iter=7).effective_num_iter == 7
        assert CCConfig(num_iter=7, to_convergence=True).effective_num_iter == 200


class TestDensify:
    def test_empty(self):
        dense, n = densify(np.array([], dtype="int64"))
        assert n == 0 and len(dense) == 0

    def test_already_dense(self):
        dense, n = densify(np.array([0, 1, 2, 1]))
        assert n == 3
        np.testing.assert_array_equal(dense, [0, 1, 2, 1])

    def test_preserves_partition(self):
        raw = np.array([9, 9, 4, 120, 4])
        dense, n = densify(raw)
        assert n == 3
        assert dense[0] == dense[1] and dense[2] == dense[4]
        assert len({dense[0], dense[2], dense[3]}) == 3


class TestClusterWeights:
    def test_sums_vertex_weights(self):
        assign = np.array([0, 0, 1, 2])
        k = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(cluster_weights(assign, k, 3), [3.0, 3.0, 4.0])

    def test_minlength_pads(self):
        out = cluster_weights(np.array([0]), np.array([2.0]), 4)
        np.testing.assert_allclose(out, [2.0, 0.0, 0.0, 0.0])


class TestFlatten:
    def test_identity(self):
        a = np.array([0, 1, 2])
        np.testing.assert_array_equal(flatten(a, np.array([0, 1, 2])), a)

    def test_merge_all(self):
        a = np.array([0, 1, 2, 1])
        np.testing.assert_array_equal(flatten(a, np.zeros(3, dtype="int64")), [0, 0, 0, 0])


class TestRunStats:
    def test_rounds_and_memory_accounting(self):
        s = RunStats(algo="x")
        s.levels = [
            LevelStats(n=100, m_directed=1000, iters=5, refine_iters=2),
            LevelStats(n=10, m_directed=100, iters=3, refine_iters=0),
            LevelStats(n=2, m_directed=4, iters=1, refine_iters=0),
        ]
        assert s.total_rounds == 11
        assert s.retained_edges_refine == 1104
        assert s.retained_edges_norefine == 1100  # max adjacent pair

    def test_single_level(self):
        s = RunStats(algo="x")
        s.levels = [LevelStats(n=5, m_directed=20, iters=1)]
        assert s.retained_edges_norefine == 20
        assert s.retained_edges_refine == 20


class TestTimer:
    def test_measures_elapsed(self):
        import time

        with Timer() as t:
            time.sleep(0.01)
        assert t.s >= 0.009


class TestHarness:
    def test_table_returns_dataframe(self, capsys):
        from repro.eval.harness import table

        df = table([{"a": 1, "b": 2.5}], title="demo")
        out = capsys.readouterr().out
        assert "demo" in out and "a" in out
        assert isinstance(df, pd.DataFrame) and len(df) == 1

    def test_timed(self):
        from repro.eval.harness import timed

        out, secs = timed(lambda x: x * 2, 21)
        assert out == 42 and secs >= 0
