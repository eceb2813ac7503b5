"""The benchmark's named workloads.

Each workload is a planted-partition graph family (the lite suite's
parameters, regenerated from the benchmark's ``--seed``) plus the engine
configuration both PAR and SEQ run with. The engines receive only the
generated graph. ``num_iter`` and ``max_levels`` are capped so that every
level uses its full iteration budget: the number of Spark passes per call
is then set by the configuration rather than by the random graph, which
keeps wall time comparable across seeds (see NOTES.md).
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import CCConfig
from repro.graphs.gen import GenGraph, planted_partition

PARTITIONS = 4  # edge partitions == local[4] cores: one task wave per pass
CFG_SEED = 2

# Lite-suite graph parameters (repro.graphs.gen._LITE_CONFIGS), minus the
# seed, which comes from the command line.
AMAZON_LITE = dict(n=10_000, avg_deg=5.6, mixing=0.25, cmin=8, cmax=100)
LJ_BIG = dict(n=80_000, avg_deg=30.0, mixing=0.35, cmin=12, cmax=300)


@dataclass(frozen=True)
class Workload:
    name: str
    graph: dict  # planted_partition parameters, without the seed
    default_seed: int
    cfg: CCConfig
    pair_s: float  # nominal seconds of one timed pair (PAR + seq_reps × SEQ) on 4 cores
    # SEQ calls per untraced pair, on that pair's graph. A SEQ call is short
    # (0.4-1.5 s), so each run needs several to give a steady median.
    seq_reps: int = 3

    def make_graph(self, seed: int) -> GenGraph:
        return planted_partition(seed=seed, name=self.name, **self.graph)


def _cc(**kw) -> CCConfig:
    return CCConfig(seed=CFG_SEED, partitions=PARTITIONS, **kw)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Small levels: PAR time is fixed per-pass Spark cost and kernel speed
        # barely matters, so pass overhead and small-level execution show here.
        Workload(
            name="amazon-async",
            graph=AMAZON_LITE,
            default_seed=11,
            cfg=_cc(resolution=0.05, num_iter=2, max_levels=2, frontier="vertices"),
            pair_s=10.5,
        ),
        # Levels 2-3x the rows of amazon-async's at every depth, compression
        # shuffle volume, and refine off with four levels, so a release of
        # finished levels lowers the cached peak.
        Workload(
            name="ljbig-async-norefine",
            # lj-big's density and mixing at 6,000 vertices. Communities are
            # capped at 60 vertices (lj-big: 300), so the graph keeps ~250 of
            # them; with 140-180 the quality and level sizes swing with the seed.
            graph=dict(LJ_BIG, n=6_000, cmax=60),
            default_seed=17,
            cfg=_cc(resolution=0.05, num_iter=2, max_levels=4, frontier="vertices", refine=False),
            pair_s=14.0,
            seq_reps=5,
        ),
        # Self-test only (perfbench/selftest.py); not listed in BENCHMARK.json.
        Workload(
            name="toy",
            graph=dict(n=300, avg_deg=6.0, mixing=0.2, cmin=8, cmax=40),
            default_seed=5,
            cfg=_cc(resolution=0.05, num_iter=2, max_levels=2, frontier="vertices"),
            pair_s=2.0,
        ),
    )
}
