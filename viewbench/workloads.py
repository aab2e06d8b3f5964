"""The three benchmark workloads: inputs from a seed, one pass through the
public collection and executor APIs, and independent reference answers.

A workload never reads a result the program computed to build its
reference: view edge sets are re-derived in pandas from the generated base
graph, and the per-view answers come from ``repro.graph_oracle``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pandas as pd

import repro.core.collection as collection
import repro.core.executor as executor
from repro import graph_oracle as oracle
from repro.core.ordering import order_diff_count
from repro.datasets import citation_graph, community_graph, social_graph
from repro.differential.algorithms import BFS, BellmanFord, PageRank, WCC
from repro.differential.scc import SCC
from repro.experiments.table2 import build_perturbed_collection
from repro.experiments.table4 import removal_views
from repro.storage.store import GraphStore

#: PageRank results are sums of floats taken in another order than the
#: reference's, so they are compared within this tolerance (float64).
PR_RTOL, PR_ATOL = 1e-9, 1e-12
#: Shortest-path sums along tied paths may differ in the last bits.
SSSP_RTOL, SSSP_ATOL = 1e-12, 1e-9
#: Random orders the optimizer's Σ|δ| must beat on community-ordered-diff.
N_RANDOM_ORDERS = 3

#: Generator sizes. ``full`` is what the benchmark measures; ``tiny`` is
#: the self-test's smoke size. Both keep each workload's structure.
SIZES = {
    "citation-adaptive": {
        "full": {"n_papers": 300, "avg_citations": 5.0, "first_window": 1971},
        "tiny": {"n_papers": 200, "avg_citations": 3.0, "first_window": 1996},
    },
    "social-small-delta": {
        "full": {"n_vertices": 2000, "n_base": 8000, "n_views": 5, "n_change": 10},
        "tiny": {"n_vertices": 300, "n_base": 900, "n_views": 3, "n_change": 4},
    },
    "community-ordered-diff": {
        "full": {"n_vertices": 700, "n_edges": 4000, "n_communities": 12, "n_top": 5, "k": 2},
        "tiny": {"n_vertices": 200, "n_edges": 1200, "n_communities": 12, "n_top": 4, "k": 2},
    },
}


@dataclass
class Job:
    """One algorithm run over every view of the collection."""

    name: str
    make: Callable[[], object]
    strategy: str
    reference: Callable[[pd.DataFrame, list[int]], dict]
    rtol: float = 0.0
    atol: float = 0.0


@dataclass
class Prepared:
    """Generated inputs plus whatever the workload built from them."""

    nodes: pd.DataFrame
    edges: pd.DataFrame
    view_edges: dict[str, pd.DataFrame]
    jobs: list[Job]
    store: GraphStore | None = None
    edge_sets: list[pd.DataFrame] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


@dataclass
class PassResult:
    """What one timed pass produced."""

    cct_s: float
    analytics_s: float
    coll: object
    reports: dict  # job name → CollectionReport, or the exception raised


class Workload:
    """A workload's inputs and calls; README.md says why each exists."""

    name = ""

    def generate(self, seed: int, size: dict) -> Prepared:
        raise NotImplementedError

    def build(self, spark, prep: Prepared) -> None:
        """Load the base graph into the program (the store layer)."""

    def create(self, spark, prep: Prepared):
        """The collection-creation call that ``cct_s`` times."""
        raise NotImplementedError

    def collection_checks(self, coll, prep: Prepared, seed: int) -> list[str]:
        """Collection-level invariants; returns the failures."""
        return []

    def teardown(self, prep: Prepared) -> None:
        if prep.store is not None:
            prep.store.unpersist()
            prep.store = None


def run_pass(wl: Workload, spark, prep: Prepared, timer) -> PassResult:
    """Create the collection, then run every job over all of its views.

    ``timer`` is ``time.perf_counter``. Exceptions from a job are kept in
    ``reports`` so the caller counts every view of that job as failed.
    """
    t0 = timer()
    try:
        coll = wl.create(spark, prep)
    except Exception as exc:  # every view of every job counts as failed
        return PassResult(timer() - t0, 0.0, None, {j.name: exc for j in prep.jobs})
    cct = timer() - t0
    reports: dict = {}
    t0 = timer()
    for job in prep.jobs:
        try:
            reports[job.name] = executor.run_collection(
                coll, job.make(), job.strategy, warmup=False
            )
        except Exception as exc:  # counted as failed views by the caller
            reports[job.name] = exc
    analytics = timer() - t0
    return PassResult(cct, analytics, coll, reports)


def reference_answers(prep: Prepared) -> dict:
    """(job, view name) → (sorted vids, expected values)."""
    vids = sorted(int(v) for v in prep.nodes["vid"])
    out = {}
    for job in prep.jobs:
        for vname, edges in prep.view_edges.items():
            ref = job.reference(edges, vids)
            out[job.name, vname] = (
                np.asarray(vids, dtype="int64"),
                np.asarray([ref[v] for v in vids], dtype="float64"),
            )
    return out


def count_failures(
    res: PassResult, prep: Prepared, refs: dict, extra_failures: list[str], log
) -> tuple[int, int]:
    """(attempted, failed) over every (view, job) result of one pass."""
    n_views = len(prep.view_edges)
    attempted = failed = 0
    for job in prep.jobs:
        attempted += n_views
        rep = res.reports[job.name]
        if isinstance(rep, Exception):
            log(f"{job.name}: raised {type(rep).__name__}: {rep}")
            failed += n_views
            continue
        if extra_failures:
            failed += n_views
            continue
        if len(rep.results) != n_views:
            log(f"{job.name}: {len(rep.results)} results for {n_views} views")
            failed += n_views
            continue
        for vname, frame in zip(res.coll.names, rep.results):
            want_vids, want = refs[job.name, vname]
            got_vids = frame["vid"].to_numpy(dtype="int64")
            got = frame["val"].to_numpy(dtype="float64")
            ok = np.array_equal(got_vids, want_vids) and np.allclose(
                got, want, rtol=job.rtol, atol=job.atol, equal_nan=False
            )
            if not ok:
                log(f"{job.name} on {vname}: result differs from the reference")
                failed += 1
    return attempted, failed


# ------------------------------------------------------------ workloads
def _ref_pagerank(edges: pd.DataFrame, vids: list[int]) -> dict:
    # ref_pagerank raises IndexError on an edgeless view (its index arrays
    # come out float); every rank there is the teleport term 1 - 0.85.
    if len(edges) == 0:
        return {v: 1.0 - 0.85 for v in vids}
    return oracle.ref_pagerank(edges, vids, iters=10)


def _highest_out_degree(edges: pd.DataFrame) -> int:
    return int(edges["src"].value_counts().idxmax())


def decade_windows(first: int) -> list[tuple[int, int]]:
    """Ten-year windows sliding by five years, the last ending in 2020."""
    return [(a, a + 9) for a in range(first, 2012, 5)]


def gvdl_windows(first: int) -> str:
    """Table 3's C_sl collection, from ``first`` on (C_sl starts at 1936)."""
    views = [
        f"[Y{a}_{b}: src.year >= {a} and src.year <= {b} "
        f"and dst.year >= {a} and dst.year <= {b}]"
        for a, b in decade_windows(first)
    ]
    return "create view collection C_sl on citations " + ", ".join(views)


class CitationAdaptive(Workload):
    name = "citation-adaptive"

    def generate(self, seed, size):
        nodes, edges = citation_graph(size["n_papers"], size["avg_citations"], seed=seed)
        year = nodes.set_index("vid")["year"]
        sy = year.loc[edges["src"]].to_numpy()
        dy = year.loc[edges["dst"]].to_numpy()
        views = {}
        for a, b in decade_windows(size["first_window"]):
            keep = (sy >= a) & (sy <= b) & (dy >= a) & (dy <= b)
            views[f"Y{a}_{b}"] = edges[keep].reset_index(drop=True)
        jobs = [
            Job("WCC", WCC, "adaptive", oracle.ref_wcc),
            Job("PR", lambda: PageRank(iters=10), "adaptive", _ref_pagerank, PR_RTOL, PR_ATOL),
            Job("SCC", SCC, "adaptive", oracle.ref_scc),
        ]
        return Prepared(nodes, edges, views, jobs, extra={"gvdl": gvdl_windows(size["first_window"])})

    def build(self, spark, prep):
        prep.store = GraphStore(spark, prep.nodes, prep.edges, name="citations")

    def create(self, spark, prep):
        return collection.collection_from_gvdl(prep.store, prep.extra["gvdl"], order="given")


class SocialSmallDelta(Workload):
    name = "social-small-delta"

    def generate(self, seed, size):
        n_base = size["n_base"]
        nodes, all_edges = social_graph(size["n_vertices"], 3 * n_base, seed=seed)
        base = all_edges.head(n_base).reset_index(drop=True)
        pool = all_edges.iloc[n_base:].reset_index(drop=True)
        n = size["n_change"]
        edge_sets = build_perturbed_collection(
            base, pool, size["n_views"], n, n, seed=seed + 1
        )
        views = {f"V{t}": e for t, e in enumerate(edge_sets)}
        source = _highest_out_degree(base)
        jobs = [
            Job(
                "BF",
                lambda: BellmanFord(source=source),
                "diff",
                lambda e, v: oracle.ref_sssp(e, source, v),
                SSSP_RTOL,
                SSSP_ATOL,
            )
        ]
        return Prepared(nodes, base, views, jobs, edge_sets=edge_sets)

    def create(self, spark, prep):
        return collection.from_edge_sets(spark, "C_small", prep.edge_sets, prep.nodes)


class CommunityOrderedDiff(Workload):
    name = "community-ordered-diff"

    def generate(self, seed, size):
        nodes, edges = community_graph(
            size["n_vertices"], size["n_edges"], size["n_communities"], seed=seed
        )
        cmask = nodes.set_index("vid")["cmask"]
        sm = cmask.loc[edges["src"]].to_numpy()
        dm = cmask.loc[edges["dst"]].to_numpy()
        views = {}
        for name, _ in removal_views(size["n_top"], size["k"]):
            mask = sum(1 << int(c) for c in name.split("_")[1:])
            keep = ((sm & mask) == 0) & ((dm & mask) == 0)
            views[name] = edges[keep].reset_index(drop=True)
        # The source belongs to none of the removable communities, so it
        # keeps its out-edges in every view.
        outside = set(nodes.vid[(nodes.cmask & ((1 << size["n_top"]) - 1)) == 0])
        cand = edges[edges.src.isin(outside)]
        source = _highest_out_degree(cand)
        jobs = [
            Job(
                "BFS",
                lambda: BFS(source=source),
                "diff",
                lambda e, v: oracle.ref_bfs(e, source, v),
            )
        ]
        return Prepared(nodes, edges, views, jobs, extra={"n_top": size["n_top"], "k": size["k"]})

    def build(self, spark, prep):
        prep.store = GraphStore(spark, prep.nodes, prep.edges, name="communities")
        prep.extra["views"] = removal_views(prep.extra["n_top"], prep.extra["k"])

    def create(self, spark, prep):
        return collection.materialize_collection(
            prep.store, "{n_top}C{k}".format(**prep.extra), prep.extra["views"], order="optimize"
        )

    def collection_checks(self, coll, prep, seed):
        errors = []
        n_diffs = int(sum(coll.diff_counts))
        implied = order_diff_count(coll.hamming, coll.order)
        if n_diffs != implied:
            errors.append(
                f"sum(diff_counts)={n_diffs} but the Hamming matrix implies {implied}"
            )
        for count in random_order_counts(coll, seed):
            if n_diffs >= count:
                errors.append(f"optimizer order {n_diffs} diffs, a random order {count}")
        return errors


def random_order_counts(coll, seed: int) -> list[int]:
    """Σ|δ| of seeded random permutations, from the collection's Hamming matrix."""
    rng = np.random.default_rng(seed)
    return [
        order_diff_count(coll.hamming, rng.permutation(coll.k).tolist())
        for _ in range(N_RANDOM_ORDERS)
    ]


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (CitationAdaptive(), SocialSmallDelta(), CommunityOrderedDiff())
}
