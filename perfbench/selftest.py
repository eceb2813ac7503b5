"""Self-test of the benchmark at toy scale (a 300-vertex planted partition).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit,
that a corrupted assignment is counted as a failed operation, and that
every traced child span lies inside its parent. Exits 1 on any failure.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import ROOT, SRC, TMP, start_spark, stop_spark  # noqa: E402

sys.path[:0] = [str(SRC), str(ROOT)]


def main() -> int:
    import shutil

    from perfbench import measure
    from perfbench.checks import check_output
    from perfbench.workloads import WORKLOADS

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS["toy"]
    seed = wl.default_seed
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    def quiet(_: str) -> None:
        pass

    spark, start_s = start_spark()
    try:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            res, runner = measure.run(spark, wl, seed, 1, trace, start_s, log=quiet)
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, f"trace={int(trace)}: metrics and units match BENCHMARK.json {key}")
            expect(res["correct"] and res["failed"] == 0, f"trace={int(trace)}: clean run has no failed ops")
        spans = runner.spans
        nested = [s for s in spans if s["parent"] >= 0]
        expect(bool(nested), "traced run recorded child spans")
        expect(
            all(
                spans[s["parent"]]["start"] <= s["start"] <= s["end"] <= spans[s["parent"]]["end"]
                and spans[s["parent"]]["call"] == s["call"]
                for s in nested
            ),
            "every child span lies inside its parent, in the same call",
        )
        expect(res["metrics"]["par_louvain.kernel_sum_s"]["value"] > 0, "executor kernel time reached the driver")

        corrupted = []

        def merge_two_clusters_once(a):
            """Corrupt the first PAR output (the warm-up) only, so timed calls still measure."""
            if corrupted:
                return a
            corrupted.append(True)
            a = a.copy()
            a[a == a[0]] = a[-1] if a[-1] != a[0] else a.max() + 1
            return a

        res, runner = measure.run(spark, wl, seed, 1, False, start_s, mutate=merge_two_clusters_once, log=quiet)
        expect(
            corrupted == [True] and res["failed"] == 1 and not res["correct"],
            "a corrupted PAR assignment is counted as failed",
        )
        expect(
            res["metrics"]["ok_ops"]["value"] == (res["attempted"] - res["failed"]) / res["attempted"] < 1,
            "ok_ops reflects the failed ops",
        )
        g = wl.make_graph(seed)
        from repro.core.seq_louvain import sequential_cc

        assign, stats = sequential_cc(g, wl.cfg)
        expect(check_output(g, wl.cfg, assign, stats) == [], "check passes a correct SEQ output")
        expect(bool(check_output(g, wl.cfg, assign[:-1], stats)), "check rejects a short assignment")
        expect(bool(check_output(g, wl.cfg, assign.astype(float), stats)), "check rejects a float assignment")
    finally:
        stop_spark(spark)
        shutil.rmtree(TMP, ignore_errors=True)
    print("selftest:", "FAILED" if problems else "OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
