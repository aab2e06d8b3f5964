"""Strongly connected components — the doubly-iterative Coloring algorithm
(Orzan [27], as named in paper §7.1), with standard trimming.

Outer loop per round (until no active vertices):

1. **Trim** — iteratively peel vertices with zero in- or out-degree inside
   the active subgraph; each is its own (singleton) SCC. Trimming is a
   driver-side cascade (cheap set arithmetic, not dataflow work).
2. **Color** — propagate the maximum vid forward to a fixpoint on the
   active subgraph (a min/max label propagation run on the engine, so the
   inner loop is a Spark dataflow exactly like the other algorithms).
3. **Backward reach** — from each color root r (color(r) = r), propagate a
   reach flag along *reversed intra-color* edges; every reached vertex is
   in r's SCC.
4. Assign and deactivate the found SCCs; repeat.

Differential execution of a nested (doubly-)iterative computation is the
case the paper itself reports as OOM/slower under DD (Table 3); here SCC
sets ``supports_advance = False`` and the executor re-runs it per view
(DESIGN.md §6).
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd
from pyspark.sql import Column, SparkSession
from pyspark.sql import functions as F

from repro.differential.engine import AlgoSpec, RunResult, ViewEdges, run_view

_NEG_INF = float("-inf")


class _MaxColor(AlgoSpec):
    """Forward max-vid propagation: color(v) = max vid that reaches v."""

    name = "SCC/color"
    agg = "max"

    def build_index(self, vertices: pd.DataFrame) -> pd.Index:
        return pd.Index(np.sort(vertices["vid"].to_numpy(dtype="int64")), name="vid")

    def init_values(self, idx: pd.Index) -> np.ndarray:
        return idx.to_numpy(dtype="float64")

    def message(self) -> Column:
        return F.col("val")

    def message_np(self, val, weight, deg):
        return val

    def update(self, init_vals: np.ndarray, agg_vals: np.ndarray) -> np.ndarray:
        return np.fmax(init_vals, agg_vals)


class _Reach(AlgoSpec):
    """Backward reach flags from the color roots (−inf = unreached, so
    unreached vertices emit no messages)."""

    name = "SCC/reach"
    agg = "max"

    def __init__(self, roots: np.ndarray):
        self.roots = np.asarray(roots, dtype="int64")

    def build_index(self, vertices: pd.DataFrame) -> pd.Index:
        return pd.Index(np.sort(vertices["vid"].to_numpy(dtype="int64")), name="vid")

    def init_values(self, idx: pd.Index) -> np.ndarray:
        v = np.full(len(idx), _NEG_INF)
        v[idx.get_indexer(self.roots)] = 1.0
        return v

    def message(self) -> Column:
        return F.col("val")

    def message_np(self, val, weight, deg):
        return val

    def update(self, init_vals: np.ndarray, agg_vals: np.ndarray) -> np.ndarray:
        return np.fmax(init_vals, agg_vals)


class SCC:
    """Executor-compatible SCC computation (scc id = max vid in component)."""

    name = "SCC"
    supports_advance = False
    undirected = False
    keyed = False

    def __init__(self, max_rounds: int = 10_000):
        self.max_rounds = max_rounds

    @staticmethod
    def _trim(edges: pd.DataFrame, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Peel zero-in/out-degree vertices; returns (trimmed, remaining)."""
        act = set(int(v) for v in active)
        e = edges[["src", "dst"]]
        e = e[e.src.isin(act) & e.dst.isin(act) & (e.src != e.dst)]
        trimmed: list[int] = []
        while True:
            if len(e) == 0:
                trimmed.extend(sorted(act))
                act.clear()
                break
            srcs = set(e.src.unique().tolist())
            dsts = set(e.dst.unique().tolist())
            keep = srcs & dsts
            peel = act - keep
            if not peel:
                break
            trimmed.extend(sorted(peel))
            act = keep
            e = e[e.src.isin(act) & e.dst.isin(act)]
        return (
            np.asarray(trimmed, dtype="int64"),
            np.asarray(sorted(act), dtype="int64"),
        )

    def run(self, spark: SparkSession, view: ViewEdges, vertices: pd.DataFrame) -> RunResult:
        t0 = time.perf_counter()
        idx = pd.Index(np.sort(vertices["vid"].to_numpy(dtype="int64")), name="vid")
        scc_id = np.full(len(idx), np.nan)
        active = idx.to_numpy()
        edges = view.pd
        iters = 0
        jobs = 0
        affected = 0
        rounds = 0
        while len(active) and rounds < self.max_rounds:
            rounds += 1
            trimmed, active = self._trim(edges, active)
            if len(trimmed):
                scc_id[idx.get_indexer(trimmed)] = trimmed.astype("float64")
            if len(active) == 0:
                break
            act_set = pd.Index(active)
            sub = edges[edges.src.isin(act_set) & edges.dst.isin(act_set)]
            sub = sub[sub.src != sub.dst]
            verts = pd.DataFrame({"vid": active})
            cview = ViewEdges(spark, sub)
            colors = run_view(spark, cview, _MaxColor(), verts)
            cvals = colors.final().astype("int64")
            iters += colors.iters
            jobs += colors.spark_jobs
            affected += colors.affected_total
            cmap = pd.Series(cvals, index=colors.idx)
            roots = colors.idx.to_numpy()[cvals == colors.idx.to_numpy()]
            same = cmap.loc[sub.src].to_numpy() == cmap.loc[sub.dst].to_numpy()
            rev = sub[same].rename(columns={"src": "dst", "dst": "src"})
            rview = ViewEdges(spark, rev[["src", "dst", "weight"]])
            reach = run_view(spark, rview, _Reach(roots), verts)
            iters += reach.iters
            jobs += reach.spark_jobs
            affected += reach.affected_total
            member = reach.final() == 1.0
            members = reach.idx.to_numpy()[member]
            scc_id[idx.get_indexer(members)] = cmap.loc[members].to_numpy(
                dtype="float64"
            )
            active = reach.idx.to_numpy()[~member]
            cview.unpersist()
            rview.unpersist()
        if np.isnan(scc_id).any():
            raise RuntimeError("SCC did not converge (max_rounds exceeded)")
        return RunResult(
            spec=self,  # type: ignore[arg-type]
            idx=idx,
            history=[scc_id],
            deg=None,
            seconds=time.perf_counter() - t0,
            iters=iters,
            affected_total=affected,
            spark_jobs=jobs,
            mode="scratch",
            extras={"rounds": rounds},
        )
