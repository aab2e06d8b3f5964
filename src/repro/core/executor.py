"""The Analytics Computation Executor (paper §3.2.2 + §5).

Runs an analytics computation over every view of a materialized collection
with one of three strategies:

- ``"scratch"``  — every view from scratch (still differential *within* a
  view: iterations share work; paper §5);
- ``"diff"``     — view 0 from scratch, every later view by feeding δC_t to
  the engine's ``advance`` (the paper's diff-only);
- ``"adaptive"`` — the §5 splitting optimizer decides per ℓ-view batch.

Each view's edge set and each δC_t come from the collection's difference
stream, collected to the driver at creation: a view is a replay of the
stream up to t and δC_t a slice of it, so neither starts a Spark job.
View t is built when its turn comes, inside its timed region, so each
per-view wall time covers everything that view costs and the §5 splitter
prices the work it chooses between. A view's Spark frame is built only if
one of its rounds is placed in Spark (engine ``local_threshold``); the
view before it is released once view t has run, so at most two views are
cached.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.collection import MaterializedCollection
from repro.core.splitting import AdaptiveSplitter
from repro.differential.engine import RunResult, ViewEdges, engine_conf, run_view


@dataclass
class ViewStat:
    """Per-view execution record."""

    t: int
    name: str
    mode: str  # effective mode: "scratch" | "diff"
    seconds: float
    iters: int
    view_size: int
    delta_size: int
    affected: int


@dataclass
class CollectionReport:
    """Result of running one algorithm over one collection."""

    algo: str
    collection: str
    strategy: str
    stats: list[ViewStat] = field(default_factory=list)
    results: list[pd.DataFrame] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        return sum(s.seconds for s in self.stats)

    @property
    def modes(self) -> list[str]:
        return [s.mode for s in self.stats]


def _run_one(
    spark: SparkSession,
    algo,
    view: ViewEdges,
    vertices: pd.DataFrame,
    prev: RunResult | None,
    delta_pd: pd.DataFrame | None,
) -> RunResult:
    if hasattr(algo, "run"):  # self-contained computation (SCC)
        return algo.run(spark, view, vertices)
    if prev is None or not algo.supports_advance:
        return run_view(spark, view, algo, vertices)
    return run_view(spark, view, algo, vertices, prev=prev, delta_pd=delta_pd)


def run_collection(
    coll: MaterializedCollection,
    algo,
    strategy: str,
    *,
    ell: int = 4,
    keep_results: bool = True,
    warmup: bool = False,
) -> CollectionReport:
    """Execute ``algo`` on every view of ``coll`` under ``strategy``.

    ``warmup=True`` first runs view 0 from scratch untimed, so JVM/JIT
    warm-up cost does not bias whichever strategy happens to run first
    (benchmark harnesses set this).
    """
    if strategy not in ("scratch", "diff", "adaptive"):
        raise ValueError(f"unknown strategy {strategy!r}")
    spark = coll.spark
    report = CollectionReport(
        algo=getattr(algo, "name", type(algo).__name__),
        collection=coll.name,
        strategy=strategy,
    )
    undirected = bool(getattr(algo, "undirected", False))
    splitter = AdaptiveSplitter(ell=ell)
    # Bootstrap alternates scratch/diff twice so both linear models get two
    # observations (identified intercept+slope; DESIGN.md §6), then per-
    # batch decisions are made lazily at runtime ("?" = not yet decided).
    decisions: list[str] = (
        ["scratch", "diff", "scratch", "diff"] + ["?"] * coll.k
    )[: coll.k]
    prev: RunResult | None = None
    prev_view: ViewEdges | None = None
    with engine_conf(spark):
        if warmup:
            view = ViewEdges(spark, coll.view_edges_pd(0), undirected=undirected)
            _run_one(spark, algo, view, coll.vertices, None, None)
            view.unpersist()
        t = 0
        while t < coll.k:
            if strategy == "scratch":
                mode = "scratch"
            elif strategy == "diff":
                mode = "diff" if t > 0 else "scratch"
            else:  # adaptive
                if decisions[t] == "?":
                    hi = min(coll.k, t + ell)
                    choice = splitter.decide_batch(
                        coll.view_sizes[t:hi], coll.diff_counts[t:hi]
                    )
                    for j in range(t, hi):
                        decisions[j] = choice
                mode = decisions[t]
            if mode == "diff" and prev is None:
                mode = "scratch"
            start = time.perf_counter()
            view = ViewEdges(spark, coll.view_edges_pd(t), undirected=undirected)
            if mode == "diff":
                delta = coll.delta_pd(t)  # feeding δC_t is part of diff time
                res = _run_one(spark, algo, view, coll.vertices, prev, delta)
            else:
                res = _run_one(spark, algo, view, coll.vertices, None, None)
            elapsed = time.perf_counter() - start
            if prev_view is not None:
                prev_view.unpersist()
            prev_view = view
            effective = res.mode
            if strategy == "adaptive":
                if effective == "scratch":
                    splitter.observe_scratch(coll.view_sizes[t], elapsed)
                else:
                    splitter.observe_diff(coll.diff_counts[t], elapsed)
            report.stats.append(
                ViewStat(
                    t=t,
                    name=coll.names[t],
                    mode=effective,
                    seconds=elapsed,
                    iters=res.iters,
                    view_size=coll.view_sizes[t],
                    delta_size=coll.diff_counts[t],
                    affected=res.affected_total,
                )
            )
            if keep_results:
                report.results.append(res.final_pd())
            prev = res
            t += 1
    if prev_view is not None:
        prev_view.unpersist()
    return report
