"""Layer probes installed from outside the engine.

``Probe`` patches the layer entry points on the engine modules for the
duration of a ``with`` block and restores them on exit. ``par_louvain``
binds the ``state`` functions by name, so they are patched there, not on
``repro.core.state``.

- Always: the cached-RDD storage is sampled right after ``level0`` and
  each ``compress`` return. Levels are only ever persisted there, so the
  largest sample is the peak a call holds.
- With ``trace=True``: a span (name, start, end, parent, call id) is kept
  in memory for each call into ``level0``, ``best_moves``, ``_move_pass``,
  ``map_edge_partitions``, ``compress`` and ``cc_objective`` on
  ``par_louvain`` and ``build_csr`` / ``compress_csr`` on ``seq_louvain``.
  Each move pass gets a sum and a max accumulator, fed by a timer around
  the partition function handed to ``map_edge_partitions``, so kernel time
  is measured on the executors. Passes are timed at ``_move_pass``:
  ``map_edge_partitions`` only builds a lazy DataFrame.

Spans are recorded only inside a ``root`` block, so engine functions the
benchmark calls for its own checks are not attributed to a layer.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from pyspark.accumulators import AccumulatorParam

from repro.core import par_louvain, seq_louvain


class MaxParam(AccumulatorParam):
    """Accumulator that keeps the largest value added (slowest partition)."""

    def zero(self, value: float) -> float:
        return 0.0

    def addInPlace(self, a: float, b: float) -> float:
        return max(a, b)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Probe.spans, -1 for a root span
    call: int
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


def storage_now(sc) -> tuple[int, float]:
    """(cached RDDs, Σ memSize+diskSize in MB) as the block manager reports."""
    infos = sc._jsc.sc().getRDDStorageInfo()
    return len(infos), sum(i.memSize() + i.diskSize() for i in infos) / 2**20


class Probe:
    def __init__(self, sc, *, trace: bool) -> None:
        self.sc = sc
        self.trace = trace
        self.spans: list[Span] = []
        self.storage: list[tuple[int, float]] = []  # samples of the current root
        self._stack: list[int] = []
        self._call = -1
        self._pass_accs = None
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else -1
        sp = Span(name, time.perf_counter(), 0.0, parent, self._call, dict(attrs))
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def root(self, name: str, call: int) -> Iterator[Span]:
        """One engine call: the parent of every span recorded inside it."""
        self._call = call
        self.storage = []
        with self.span(name) as sp:
            yield sp

    # -- patching ----------------------------------------------------------
    def _patch(self, module, name: str, wrapper) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def __enter__(self) -> "Probe":
        pl, sl = par_louvain, seq_louvain
        self._patch(pl, "level0", self._sampled(pl.level0, "state.level0"))
        self._patch(pl, "compress", self._sampled(pl.compress, "state.compress"))
        if self.trace:
            self._patch(pl, "best_moves", self._spanned(pl.best_moves, "par_louvain.best_moves"))
            self._patch(pl, "_move_pass", self._move_pass(pl._move_pass))
            self._patch(pl, "map_edge_partitions", self._map_edge_partitions(pl.map_edge_partitions))
            self._patch(pl, "cc_objective", self._spanned(pl.cc_objective, "state.cc_objective"))
            self._patch(sl, "build_csr", self._spanned(sl.build_csr, "seq_louvain.build_csr"))
            self._patch(sl, "compress_csr", self._spanned(sl.compress_csr, "seq_louvain.compress_csr"))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, name, orig = self._saved.pop()
            setattr(module, name, orig)

    def _spanned(self, fn, name: str):
        def wrapper(*a, **kw):
            if not self._stack:
                return fn(*a, **kw)
            with self.span(name):
                return fn(*a, **kw)

        return wrapper

    def _sampled(self, fn, name: str):
        """level0 / compress: span (when tracing) + storage sample on return."""

        def wrapper(level_or_graph, *a, **kw):
            if not self._stack:
                return fn(level_or_graph, *a, **kw)
            if self.trace:
                with self.span(name) as sp:
                    out = fn(level_or_graph, *a, **kw)
                sp.attrs["rows_out"] = out.m_directed
                if name == "state.compress":
                    sp.attrs["rows_in"] = level_or_graph.m_directed
            else:
                out = fn(level_or_graph, *a, **kw)
            self.storage.append(storage_now(self.sc))
            return out

        return wrapper

    def _move_pass(self, fn):
        def wrapper(level, *a, **kw):
            if not self._stack:
                return fn(level, *a, **kw)
            acc_sum = self.sc.accumulator(0.0)
            acc_max = self.sc.accumulator(0.0, MaxParam())
            self._pass_accs = (acc_sum, acc_max)
            try:
                with self.span("par_louvain._move_pass", rows=level.m_directed) as sp:
                    out = fn(level, *a, **kw)
            finally:
                self._pass_accs = None
            sp.attrs.update(moves=len(out), kernel_sum=acc_sum.value, kernel_max=acc_max.value)
            return out

        return wrapper

    def _map_edge_partitions(self, fn):
        def wrapper(edges, part_fn, schema):
            if self._pass_accs is None:
                return fn(edges, part_fn, schema)
            acc_sum, acc_max = self._pass_accs

            def timed(pdf):
                t0 = time.perf_counter()
                out = part_fn(pdf)
                dt = time.perf_counter() - t0
                acc_sum.add(dt)
                acc_max.add(dt)
                return out

            with self.span("state.map_edge_partitions"):
                return fn(edges, timed, schema)

        return wrapper
