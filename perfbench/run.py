"""Benchmark entry point: PAR-CC / SEQ-CC on one named workload.

    python3 perfbench/run.py --workload amazon-async --seed 11 --seconds 28 --trace 0

Run from the repository root. It starts a local[4] Spark session whose
Python workers import ``repro`` from ``src/`` and the probes from
``perfbench/``, runs ``perfbench.measure.run`` and prints, as the last
line of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``). Calls, assignment digests and
spans go to ``perfbench/out/``. Temporary files stay in
``.perfbench_tmp/`` and are removed on exit.
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
TMP = ROOT / ".perfbench_tmp"
CORES = 4


def start_spark():
    """local[4] session, 4 shuffle partitions, no UI or progress bar.

    Returns (session, seconds to start). The environment is set before
    pyspark is imported: the JVM reads its launch arguments once.
    """
    t0 = time.perf_counter()
    TMP.mkdir(exist_ok=True)
    tmp = str(TMP)
    paths = [str(SRC), str(ROOT)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ.update(
        PYTHONPATH=os.pathsep.join(paths),
        PYSPARK_PYTHON=sys.executable,
        TMPDIR=tmp,
        PYSPARK_SUBMIT_ARGS=" ".join(
            [
                f"--master local[{CORES}]",
                "--driver-memory 2g",
                f"--driver-java-options {shlex.quote('-Djava.io.tmpdir=' + tmp)}",
                "--conf spark.driver.host=127.0.0.1",
                "--conf spark.ui.enabled=false",
                "--conf spark.ui.showConsoleProgress=false",
                f"--conf {shlex.quote('spark.local.dir=' + tmp)}",
                "pyspark-shell",
            ]
        ),
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(CORES))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark, time.perf_counter() - t0


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM (and its Python workers) to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None, help="graph seed (default: the lite suite's)")
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC / 'repro'} not found; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import measure
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    # SIGTERM unwinds like an exception, so the JVM is still stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spark = None
    try:
        spark, spark_start_s = start_spark()
        result, runner = measure.run(
            spark, wl, seed, args.seconds, bool(args.trace), spark_start_s
        )
    finally:
        if spark is not None:
            stop_spark(spark)
        shutil.rmtree(TMP, ignore_errors=True)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{wl.name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {"workload": wl.name, "seed": seed, "cfg": repr(wl.cfg), "result": result,
             "calls": runner.calls, "spans": runner.spans},
            indent=1,
        )
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
