"""Fixed reference work that end-to-end call times are divided by.

On a shared host the speed the program gets drifts by up to 2x over
minutes, so raw wall times of runs minutes apart disagree by more than any
useful bound. Each timed call is therefore bracketed by reference work
that runs no ``repro`` code, and its wall time is reported as a multiple
of the reference's: a change to the program moves the ratio, host drift
moves both sides.

- ``reference_loop``: single-core Python and small numpy calls, the mix of
  SEQ's inner loop. SEQ call times follow it closely; PAR times do not.
- ``reference_job``: a few small Spark jobs of the shape of one PAR move
  pass (``mapInPandas`` in the Python workers, a shuffle, an Arrow collect).
  PAR call times, which are mostly Spark job latency, follow it, including
  the JVM's JIT warm-up over the first minutes of a session.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd

# Fixed input of the reference loop: rows like a vertex's neighbour labels.
_LOOP_ROWS = np.random.default_rng(0).integers(0, 50, size=(2000, 24))
JOB_ROWS = 20_000
JOB_GROUPS = 97
JOBS = 4


def reference_loop() -> float:
    """Wall seconds of a fixed single-core loop; about 120 ms on an idle 4-vCPU Intel Xeon."""
    t0 = time.perf_counter()
    s = 0
    for _ in range(3):
        for i in range(150_000):
            s += i * i
        for row in _LOOP_ROWS:
            _, inv = np.unique(row, return_inverse=True)
            s += int(np.bincount(inv).argmax())
    return time.perf_counter() - t0


def _job_partition(batches):
    for df in batches:
        yield pd.DataFrame({"g": df["id"] % JOB_GROUPS, "v": df["id"] * 2})


def reference_job(spark) -> float:
    """Wall seconds of ``JOBS`` fixed Spark jobs; about 1.4 s on an idle 4-vCPU Intel Xeon."""
    t0 = time.perf_counter()
    for _ in range(JOBS):
        out = (
            spark.range(0, JOB_ROWS, numPartitions=4)
            .mapInPandas(_job_partition, "g long, v long")
            .groupBy("g")
            .count()
            .toPandas()
        )
        if len(out) != JOB_GROUPS or int(out["count"].sum()) != JOB_ROWS:
            raise RuntimeError(f"reference job returned {len(out)} groups")
    return time.perf_counter() - t0
