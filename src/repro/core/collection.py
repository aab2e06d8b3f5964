"""View-collection materialization (paper §3.2.1, steps 1–3) and the
materialized-collection handle the Analytics Computation Executor consumes.

``materialize_collection`` runs the three-step pipeline:

1. :func:`repro.core.ebm.compute_ebm` — edge boolean matrix, evaluated and
   collected to the driver by :func:`repro.core.ebm.collect_ebm` (only the
   edges in at least one view);
2. :func:`repro.core.ordering.optimize_order` — CBMP_1.5 ordering
   (Algorithm 1's Hamming matrix over the collected bits + Christofides),
   or a user/"given" order;
3. :func:`repro.core.diffstream.flips` — the edge difference stream of the
   collected bits in that order (the paper's collection creation time,
   CCT, covers exactly these steps).

So creation makes one Spark action for every order and caches nothing.
:class:`MaterializedCollection` keeps the stream, sorted by t, as the
driver-side arrangement: view sizes, diff counts, each δC_t (a slice) and
each view's edge set (a replay of δC_0..δC_t) are read from it without a
Spark job. Artificial collections built from explicit edge sets (paper
§5's controlled experiment, our Table 2) go through :func:`from_edge_sets`,
which builds the bits at the driver and then takes the same steps 2–3, so
every collection takes the same code path downstream.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import Column, SparkSession

from repro.core import diffstream as ds
from repro.core.ebm import collect_ebm, compute_ebm
from repro.core.ordering import optimize_order
from repro.gvdl import parse, to_spark_column
from repro.gvdl.parser import ViewCollectionDef
from repro.storage.store import GraphStore


@dataclass
class MaterializedCollection:
    """An ordered view collection held as its collected difference stream.

    ``names``/``order`` are aligned: ``names[t]`` is the view executed at
    timestamp t, which is EBM column ``order[t]``. ``stream`` holds the rows
    ``(t, eid, src, dst, weight, sign)`` sorted by ``(t, eid)``; sizes,
    counts, views and δ are read from it at the driver, with no Spark job.
    """

    spark: SparkSession
    name: str
    names: list[str]
    order: list[int]
    stream: pd.DataFrame
    vertices: pd.DataFrame
    hamming: np.ndarray | None = None
    cct: dict = field(default_factory=dict)
    view_sizes: list[int] = field(init=False)
    diff_counts: list[int] = field(init=False)

    def __post_init__(self) -> None:
        k = self.k
        self.diff_counts = ds.diff_counts(self.stream, k)
        self.view_sizes = ds.view_sizes(self.stream, k)
        # δC_t is rows [_bounds[t], _bounds[t + 1]) of the stream.
        self._bounds = np.concatenate([[0], np.cumsum(self.diff_counts)])
        _, first, self._edge_of_row = np.unique(
            self.stream["eid"].to_numpy(), return_index=True, return_inverse=True
        )
        # One row per edge of the union of all views, in eid order.
        self._edges = self.stream.iloc[first][["src", "dst", "weight"]].reset_index(
            drop=True
        )
        self._signs = self.stream["sign"].to_numpy()

    @property
    def k(self) -> int:
        return len(self.order)

    def _check_t(self, t: int) -> None:
        if not 0 <= t < self.k:
            raise IndexError(f"view {t} outside 0..{self.k - 1}")

    def view_edges_pd(self, t: int) -> pd.DataFrame:
        """Edge set (src, dst, weight) of the t-th view in collection order,
        in eid order: the edges whose signs in δC_0..δC_t sum to 1."""
        self._check_t(t)
        end = self._bounds[t + 1]
        net = np.bincount(
            self._edge_of_row[:end],
            weights=self._signs[:end],
            minlength=len(self._edges),
        )
        return self._edges[net == 1].reset_index(drop=True)

    def delta_pd(self, t: int) -> pd.DataFrame:
        """δC_t as (src, dst, weight, sign ±1), in eid order; t ≥ 1."""
        if t < 1:
            raise ValueError("δC_0 is the first view itself; use view_edges_pd(0)")
        self._check_t(t)
        rows = self.stream.iloc[self._bounds[t] : self._bounds[t + 1]]
        return rows[["src", "dst", "weight", "sign"]].reset_index(drop=True)

    def unpersist(self) -> None:
        """Release the collection. Creation caches nothing in Spark and the
        stream lives at the driver, so there is nothing to release."""


def _finish(
    spark: SparkSession,
    name: str,
    names_by_col: list[str],
    edges: pd.DataFrame,
    bits: np.ndarray,
    vertices: pd.DataFrame,
    order,
    cct: dict,
) -> MaterializedCollection:
    """Order the views of the collected EBM ``bits`` (one row per edge of
    ``edges``), then derive the difference stream from the same bits."""
    k = len(names_by_col)
    optimize = isinstance(order, str) and order == "optimize"
    if isinstance(order, str) and order == "given":
        order = list(range(k))
    elif not optimize:
        order = list(order)
        if sorted(order) != list(range(k)):
            raise ValueError("explicit order must be a permutation of views")
    hamming = None
    t0 = time.perf_counter()
    if optimize:
        order, hamming = optimize_order(bits)
    cct["ordering"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    stream = ds.sort_stream(ds.flips(edges, bits, order))
    cct["diffstream"] = time.perf_counter() - t0
    cct["total"] = sum(cct.values())
    return MaterializedCollection(
        spark=spark,
        name=name,
        names=[names_by_col[c] for c in order],
        order=order,
        stream=stream,
        vertices=vertices,
        hamming=hamming,
        cct=cct,
    )


def materialize_collection(
    store: GraphStore,
    name: str,
    views: list[tuple[str, Column]],
    *,
    order: "str | list[int]" = "optimize",
    weight_col: str | None = None,
) -> MaterializedCollection:
    """Run the 3-step pipeline for predicate-defined views.

    ``order`` is ``"optimize"`` (paper's optimizer), ``"given"`` (user
    order, e.g. Listing 3's D1..D34), or an explicit permutation (used for
    the random-order baselines R1–R3 in Table 4).
    """
    t0 = time.perf_counter()
    ebm = compute_ebm(store, [c for _, c in views], weight_col=weight_col)
    edges, bits = collect_ebm(ebm, len(views))
    cct = {"ebm": time.perf_counter() - t0}
    return _finish(
        store.spark,
        name,
        [n for n, _ in views],
        edges,
        bits,
        store.vertices(),
        order,
        cct,
    )


def collection_from_gvdl(
    store: GraphStore,
    text: str,
    *,
    order: "str | list[int]" = "optimize",
    weight_col: str | None = None,
) -> MaterializedCollection:
    """Parse a GVDL ``create view collection`` statement and materialize it."""
    stmt = parse(text)
    if not isinstance(stmt, ViewCollectionDef):
        raise TypeError("expected a 'create view collection' statement")
    views = [(n, to_spark_column(p)) for n, p in stmt.views]
    return materialize_collection(
        store, stmt.name, views, order=order, weight_col=weight_col
    )


def from_edge_sets(
    spark: SparkSession,
    name: str,
    edge_sets: list[pd.DataFrame],
    vertices: pd.DataFrame,
    *,
    names: list[str] | None = None,
) -> MaterializedCollection:
    """Build a collection from explicit per-view edge sets (src, dst[, weight]).

    Builds the EBM's bits over the union universe of all edges at the
    driver and takes the same ordering and stream steps as
    :func:`materialize_collection` on them, so artificial collections
    (paper §5's controlled experiment) flow through the same executor path
    as predicate-defined ones without a Spark job. Views keep the given
    order.
    """
    k = len(edge_sets)
    names = names or [f"V{t}" for t in range(k)]
    t0 = time.perf_counter()
    frames = []
    for t, e in enumerate(edge_sets):
        e = e.copy()
        if "weight" not in e.columns:
            e["weight"] = 1.0
        e["_t"] = t
        frames.append(e[["src", "dst", "weight", "_t"]])
    allp = pd.concat(frames, ignore_index=True)
    allp["weight"] = allp["weight"].astype("float64")
    # Key on (src, dst, weight): an edge whose weight changes between views
    # becomes a −old/+new difference pair, exactly as in the paper's
    # Table-1 example of cost updates.
    uni = allp.drop_duplicates(["src", "dst", "weight"]).reset_index(drop=True)
    uni["eid"] = np.arange(len(uni), dtype="int64")
    key = uni.set_index(
        pd.MultiIndex.from_arrays([uni.src, uni.dst, uni.weight])
    )["eid"]
    bits = np.zeros((len(uni), k), dtype=bool)
    rows = key.loc[
        pd.MultiIndex.from_arrays([allp.src, allp.dst, allp.weight])
    ].to_numpy()
    bits[rows, allp["_t"].to_numpy()] = True
    cct = {"ebm": time.perf_counter() - t0}
    return _finish(spark, name, names, uni, bits, vertices, "given", cct)
