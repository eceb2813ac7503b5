"""Measurement loop: timed PAR/SEQ calls, output checks and metrics.

One run = an untimed warm-up PAR call, then ``seconds / pair_s`` call
pairs (``Workload.pair_s``). Pair ``i`` generates the graph of seed ``seed + i``
(so a run's quality figures are medians over several graphs, not one draw) and
ships a fresh, uncached DataFrame to ``parallel_cc`` (``level0`` adopts
and later unpersists a caller DataFrame that already has the right
partition count, so reusing one would hand later calls a different input
state). Each per-run value is the median over the run's calls.

``trace=False`` reports the end-to-end metrics. ``trace=True`` mixes
untraced and traced pairs and reports the per-layer metrics of the traced
ones, plus the difference between traced and untraced PAR wall time.

End-to-end call times are relative (see ``reference.py``): a PAR call's
wall time over the mean of the reference Spark job's before and after it,
and a SEQ call's over the mean of the reference loop's before and after
it. Consecutive calls share the reference run between them. Raw wall
times are per-layer metrics and are in every call record.
"""
from __future__ import annotations

import statistics
import time
import traceback
from typing import Callable

from repro.core.par_louvain import parallel_cc
from repro.core.seq_louvain import sequential_cc
from repro.eval.quality import avg_precision_recall
from repro.graphs.ops import to_spark

from .checks import assignment_sha256, check_output
from .probe import Probe, storage_now
from .reference import reference_job, reference_loop
from .workloads import PARTITIONS, Workload


END_TO_END = {
    "setup_s": "s",
    "par_wall_rel": "refjob",
    "seq_wall_rel": "refloop",
    "par_objective": "objective",
    "seq_objective": "objective",
    "par_precision": "ratio",
    "par_recall": "ratio",
    "par_cached_mb_peak": "MB",
    "ok_ops": "fraction",
}

PER_LAYER = {
    "par_louvain.passes": "count",
    "par_louvain.pass_wall_s": "s",
    "par_louvain.pass_p50_s": "s",
    "par_louvain.job_overhead_s": "s",
    "par_louvain.driver_apply_s": "s",
    "par_louvain.kernel_sum_s": "s",
    "par_louvain.kernel_crit_s": "s",
    "par_louvain.rows_scanned": "count",
    "par_louvain.rounds": "count",
    "par_louvain.moves": "count",
    "par_louvain.levels": "count",
    "par_louvain.useful_pass_ratio": "ratio",
    "state.level0_s": "s",
    "state.objective_s": "s",
    "state.compress_s": "s",
    "state.compress_calls": "count",
    "state.compress_rows_in": "count",
    "state.compress_rows_out": "count",
    "state.cached_rdds_max": "count",
    "seq_louvain.build_csr_s": "s",
    "seq_louvain.moves_s": "s",
    "seq_louvain.compress_s": "s",
    "seq_louvain.rounds": "count",
    "gen.graph_s": "s",
    "ops.to_spark_s": "s",
    "trace.overhead_s": "s",
    "trace.unexplained_s": "s",
    "par_louvain.call_wall_s": "s",
    "seq_louvain.call_wall_s": "s",
    "host.ref_job_s": "s",
    "host.ref_loop_s": "s",
}


def _par_layers(probe: Probe, root: int, stats) -> dict:
    """Per-layer figures of one traced ``parallel_cc`` call."""
    spans = [s for s in probe.spans if s.call == probe.spans[root].call]

    def total(name: str) -> float:
        return sum(s.dur for s in spans if s.name == name)

    passes = [s for s in spans if s.name == "par_louvain._move_pass"]
    compresses = [s for s in spans if s.name == "state.compress"]
    walls = [s.dur for s in passes]
    bm = total("par_louvain.best_moves")
    top = total("state.level0") + bm + total("state.compress") + total("state.cc_objective")
    return {
        "par_louvain.passes": len(passes),
        "par_louvain.pass_wall_s": sum(walls),
        "par_louvain.pass_p50_s": statistics.median(walls) if walls else 0.0,
        "par_louvain.job_overhead_s": sum(s.dur - s.attrs["kernel_max"] for s in passes),
        "par_louvain.driver_apply_s": bm - sum(walls),
        "par_louvain.kernel_sum_s": sum(s.attrs["kernel_sum"] for s in passes),
        "par_louvain.kernel_crit_s": sum(s.attrs["kernel_max"] for s in passes),
        "par_louvain.rows_scanned": sum(s.attrs["rows"] for s in passes),
        "par_louvain.rounds": stats.total_rounds,
        "par_louvain.moves": sum(l.moves + l.refine_moves for l in stats.levels),
        "par_louvain.levels": len(stats.levels),
        "par_louvain.useful_pass_ratio": (
            sum(s.attrs["moves"] > 0 for s in passes) / len(passes) if passes else 0.0
        ),
        "state.level0_s": total("state.level0"),
        "state.objective_s": total("state.cc_objective"),
        "state.compress_s": total("state.compress"),
        "state.compress_calls": len(compresses),
        "state.compress_rows_in": sum(s.attrs["rows_in"] for s in compresses),
        "state.compress_rows_out": sum(s.attrs["rows_out"] for s in compresses),
        "state.cached_rdds_max": max((n for n, _ in probe.storage), default=0),
        "trace.unexplained_s": probe.spans[root].dur - top,
    }


def _seq_layers(probe: Probe, root: int, stats) -> dict:
    call = probe.spans[root].call
    return {
        "seq_louvain.build_csr_s": sum(
            s.dur for s in probe.spans if s.call == call and s.name == "seq_louvain.build_csr"
        ),
        "seq_louvain.moves_s": sum(l.time_moves + l.time_refine for l in stats.levels),
        "seq_louvain.compress_s": sum(l.time_compress for l in stats.levels),
        "seq_louvain.rounds": stats.total_rounds,
    }


class Runner:
    """Runs and checks call pairs of one workload at one seed."""

    def __init__(
        self,
        spark,
        wl: Workload,
        seed: int,
        *,
        mutate: Callable | None = None,
        log: Callable[[str], None] = print,
    ) -> None:
        self.spark = spark
        self.wl = wl
        self.seed = seed
        self.mutate = mutate  # self-test hook: corrupts PAR output before its check
        self.log = log
        self.ops = 0
        self.failed = 0
        self.calls: list[dict] = []
        self.spans: list[dict] = []
        # per call name: the reference time measured right after the last call
        self.last_ref: dict[str, float] = {}

    def _engine_call(self, probe: Probe, name: str, fn, g, rec: dict, ref: Callable | None):
        """Run one engine call under a root span; check it; record the outcome.

        With a ``ref`` function, the reference runs before and after the call
        (consecutive calls of one name share the run between them) and the
        call's wall time over their mean is recorded as ``<name>_rel``.
        """
        op = self.ops
        self.ops += 1
        root_idx = len(probe.spans)
        try:
            if ref is not None and name not in self.last_ref:
                self.last_ref[name] = ref()
            before = self.last_ref.get(name)
            with probe.root(name, op) as root:
                assign, stats = fn()
            if ref is not None:
                self.last_ref[name] = ref()
            if name == "parallel_cc" and self.mutate is not None:
                assign = self.mutate(assign)
            problems = check_output(g, self.wl.cfg, assign, stats)
        except Exception:  # a failing call is counted, the run goes on
            traceback.print_exc()
            self.last_ref.pop(name, None)
            self.failed += 1
            rec[f"{name}_error"] = traceback.format_exc(limit=3)
            return None
        rec.setdefault(f"{name}_wall_s", []).append(root.dur)
        if ref is not None:
            ref_s = (before + self.last_ref[name]) / 2
            rec.setdefault(f"{name}_ref_s", []).append(ref_s)
            rec.setdefault(f"{name}_rel", []).append(root.dur / ref_s)
        rec[f"{name}_objective"] = stats.reported_objective
        if problems:
            self.failed += 1
            rec[f"{name}_problems"] = problems
            return None
        rec[f"{name}_sha256"] = assignment_sha256(assign)
        return assign, stats, root_idx

    def pair(self, *, traced: bool, with_seq: bool, offset: int = 0, ref: bool = True) -> dict:
        """Generate graph ``seed + offset``, ship it and run one PAR (and optionally SEQ) call.

        ``ref=False`` (the warm-up) runs no reference work.
        """
        rec: dict = {"traced": traced, "seed": self.seed + offset}
        t0 = time.perf_counter()
        g = self.wl.make_graph(self.seed + offset)
        t1 = time.perf_counter()
        gd = to_spark(self.spark, g, partitions=PARTITIONS)
        t2 = time.perf_counter()
        rec.update(gen_s=t1 - t0, to_spark_s=t2 - t1)
        sc = self.spark.sparkContext
        with Probe(sc, trace=traced) as probe:
            pre_mb = storage_now(sc)[1]
            out = self._engine_call(
                probe, "parallel_cc", lambda: parallel_cc(gd, self.wl.cfg), g, rec,
                (lambda: reference_job(self.spark)) if ref else None,
            )
            if out is not None:
                assign, stats, root = out
                if not probe.storage:
                    self.failed += 1
                    rec["parallel_cc_problems"] = ["no level0/compress boundary observed"]
                else:
                    rec["cached_mb_peak"] = max(mb for _, mb in probe.storage) - pre_mb
                    rec["precision"], rec["recall"] = avg_precision_recall(g.gt_communities(), assign)
                    if traced:
                        rec["layers"] = _par_layers(probe, root, stats)
            self.last_ref.pop("sequential_cc", None)  # PAR ran since the last SEQ call
            for _ in range(self.wl.seq_reps if with_seq and not traced else int(with_seq)):
                out = self._engine_call(
                    probe, "sequential_cc", lambda: sequential_cc(g, self.wl.cfg), g, rec,
                    reference_loop if ref else None,
                )
                if out is not None and traced:
                    rec.setdefault("layers", {}).update(_seq_layers(probe, out[2], out[1]))
            base = len(self.spans)
            self.spans.extend(
                dict(s.__dict__, parent=s.parent + base if s.parent >= 0 else -1)
                for s in probe.spans
            )
        rec["pair_s"] = time.perf_counter() - t0
        self.calls.append(rec)
        self.log(_describe(rec))
        return rec


def _describe(rec: dict) -> str:
    parts = [f"traced={int(rec['traced'])}", f"pair {rec['pair_s']:.2f}s"]
    for name in ("parallel_cc", "sequential_cc"):
        if f"{name}_wall_s" in rec:
            walls = ", ".join(f"{w:.3f}" for w in rec[f"{name}_wall_s"])
            rels = ", ".join(f"{r:.2f}" for r in rec.get(f"{name}_rel", []))
            parts.append(
                f"{name} [{walls}]s [{rels}]rel obj {rec[f'{name}_objective']!r} "
                f"sha256 {rec.get(f'{name}_sha256', 'FAILED')[:16]}"
            )
        elif f"{name}_error" in rec:
            parts.append(f"{name} RAISED")
    return "  ".join(parts)


def _median(values: list[float], what: str) -> float:
    if not values:
        raise RuntimeError(f"no successful call measured {what}")
    return statistics.median(values)


def run(
    spark,
    wl: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    spark_start_s: float,
    *,
    mutate: Callable | None = None,
    log: Callable[[str], None] = print,
) -> tuple[dict, Runner]:
    """One benchmark run; returns (result object, runner with calls and spans)."""
    r = Runner(spark, wl, seed, mutate=mutate, log=log)
    t0 = time.perf_counter()
    r.pair(traced=False, with_seq=False, ref=False)  # JVM classes and JIT, codegen, Python workers
    r.calls.clear()
    warmup_s = time.perf_counter() - t0
    ref_warmup_s = reference_job(spark)  # benchmark overhead, not the program's set-up
    log(f"warm-up {warmup_s:.2f}s (spark start {spark_start_s:.2f}s), reference job {ref_warmup_s:.2f}s")
    # A fixed number of pairs per run, from --seconds and the workload's
    # nominal pair time: runs (and commits) then measure the same calls at
    # the same point of the JVM's warm-up, whatever their speed.
    pairs = max(4 if trace else 1, round(seconds / wl.pair_s))
    t_start = time.perf_counter()
    for i in range(pairs):
        # trace=True runs untraced (PAR only) and traced (PAR + SEQ) pairs in
        # U T T U order, so a drift in speed over the run cancels out of the
        # traced-minus-untraced overhead.
        traced = trace and i % 4 in (1, 2)
        r.pair(traced=traced, with_seq=traced or not trace, offset=i)
    timed = r.calls

    def col(key: str, recs=timed) -> list[float]:
        values = [c[key] for c in recs if key in c]
        return [v for x in values for v in (x if isinstance(x, list) else [x])]

    if trace:
        traced_calls = [c for c in timed if c["traced"] and "layers" in c]
        from_spans = {name for c in traced_calls for name in c["layers"]}
        values = {
            name: _median([c["layers"][name] for c in traced_calls if name in c["layers"]], name)
            for name in PER_LAYER
            if name in from_spans
        }
        values["gen.graph_s"] = _median(col("gen_s"), "gen_s")
        values["ops.to_spark_s"] = _median(col("to_spark_s"), "to_spark_s")
        # Compared as relative times, so that JIT warm-up between the first
        # (untraced) and later pairs does not read as tracing cost.
        values["trace.overhead_s"] = (
            _median(col("parallel_cc_rel", [c for c in timed if c["traced"]]), "traced par wall")
            - _median(col("parallel_cc_rel", [c for c in timed if not c["traced"]]), "par wall")
        ) * _median(col("parallel_cc_ref_s"), "reference job")
        values["par_louvain.call_wall_s"] = _median(col("parallel_cc_wall_s"), "par wall")
        values["seq_louvain.call_wall_s"] = _median(col("sequential_cc_wall_s"), "seq wall")
        values["host.ref_job_s"] = _median(col("parallel_cc_ref_s"), "reference job")
        values["host.ref_loop_s"] = _median(col("sequential_cc_ref_s"), "reference loop")
        units = PER_LAYER
    else:
        setup = [c["gen_s"] + c["to_spark_s"] for c in timed]
        values = {
            "setup_s": spark_start_s + warmup_s + statistics.median(setup),
            "par_wall_rel": _median(col("parallel_cc_rel"), "par wall"),
            "seq_wall_rel": _median(col("sequential_cc_rel"), "seq wall"),
            "par_objective": _median(col("parallel_cc_objective"), "par objective"),
            "seq_objective": _median(col("sequential_cc_objective"), "seq objective"),
            "par_precision": _median(col("precision"), "precision"),
            "par_recall": _median(col("recall"), "recall"),
            "par_cached_mb_peak": _median(col("cached_mb_peak"), "cached MB"),
            "ok_ops": (r.ops - r.failed) / r.ops,
        }
        units = END_TO_END
    log(
        f"{len(timed)} timed pairs in {time.perf_counter() - t_start:.1f}s; per-run values are "
        f"medians over {len(col('parallel_cc_wall_s'))} PAR and {len(col('sequential_cc_wall_s'))} SEQ calls"
    )
    result = {
        "correct": r.failed == 0,
        "attempted": r.ops,
        "failed": r.failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }
    return result, r
