"""Engine scratch-mode tests: every algorithm vs the Python references,
plus DuckDB recursive-CTE oracle checks for BFS/WCC/SSSP on small graphs.
"""
import numpy as np
import pandas as pd
import pytest

from repro.datasets import social_graph
from repro.differential.algorithms import BFS, MPSP, BellmanFord, PageRank, WCC
from repro.differential.engine import (
    LOCAL_AGG_THRESHOLD,
    ViewEdges,
    engine_conf,
    run_view,
)
from repro.graph_oracle import (
    bfs_sql,
    ref_bfs,
    ref_mpsp,
    ref_pagerank,
    ref_sssp,
    ref_wcc,
    sssp_sql,
    wcc_sql,
)
from repro.oracle import assert_equivalent

INF = float("inf")


@pytest.fixture(scope="module")
def graph():
    nodes, edges = social_graph(120, 420, seed=2)
    return nodes, edges


@pytest.fixture(scope="module")
def source(graph):
    _, edges = graph
    return int(edges.src.value_counts().idxmax())


def run(spark, edges, spec, nodes, local_threshold=LOCAL_AGG_THRESHOLD):
    with engine_conf(spark):
        v = ViewEdges(spark, edges, undirected=spec.undirected)
        res = run_view(spark, v, spec, nodes[["vid"]], local_threshold=local_threshold)
        v.unpersist()
    return res


def as_dict(res):
    return res.final_pd().set_index("vid")["val"].to_dict()


# ----------------------------------------------------------- vs references
def test_wcc_matches_union_find(spark, graph):
    nodes, edges = graph
    got = as_dict(run(spark, edges, WCC(), nodes))
    ref = ref_wcc(edges, list(nodes.vid))
    assert got == {k: float(v) for k, v in ref.items()}


def test_bfs_matches_reference(spark, graph, source):
    nodes, edges = graph
    got = as_dict(run(spark, edges, BFS(source), nodes))
    assert got == ref_bfs(edges, source, list(nodes.vid))


def test_bellman_ford_matches_dijkstra(spark, graph, source):
    nodes, edges = graph
    got = as_dict(run(spark, edges, BellmanFord(source), nodes))
    ref = ref_sssp(edges, source, list(nodes.vid))
    for k, v in ref.items():
        assert got[k] == v or abs(got[k] - v) < 1e-9


@pytest.mark.parametrize("iters", [1, 3, 10])
def test_pagerank_matches_power_iteration(spark, graph, iters):
    nodes, edges = graph
    got = as_dict(run(spark, edges, PageRank(iters=iters), nodes))
    ref = ref_pagerank(edges, list(nodes.vid), iters=iters)
    for k, v in ref.items():
        assert abs(got[k] - v) < 1e-9


def test_mpsp_matches_dijkstra(spark, graph, source):
    nodes, edges = graph
    pairs = [(source, 3), (source, 77), (11, 50), (5, source)]
    spec = MPSP(pairs)
    res = run(spark, edges, spec, nodes)
    got = spec.pair_distances(res)
    ref = ref_mpsp(edges, pairs, list(nodes.vid))
    assert all(a == b or abs(a - b) < 1e-9 for a, b in zip(got, ref))


def _spec_and_reference(algo, edges, nodes, source):
    vids = list(nodes.vid)
    pairs = [(source, 3), (source, 77), (11, 50), (5, source)]
    return {
        "WCC": (WCC(), lambda: {k: float(v) for k, v in ref_wcc(edges, vids).items()}),
        "BFS": (BFS(source), lambda: ref_bfs(edges, source, vids)),
        "BF": (BellmanFord(source), lambda: ref_sssp(edges, source, vids)),
        "PR": (PageRank(iters=3), lambda: ref_pagerank(edges, vids, iters=3)),
        "MPSP": (MPSP(pairs), lambda: dict(enumerate(ref_mpsp(edges, pairs, vids)))),
    }[algo]


def _values(algo, spec, res):
    return dict(enumerate(spec.pair_distances(res))) if algo == "MPSP" else as_dict(res)


def _assert_matches(got, want):
    assert got.keys() == want.keys()
    assert np.allclose([got[k] for k in want], list(want.values()), rtol=0, atol=1e-9)


@pytest.mark.parametrize("algo", ["WCC", "BFS", "BF", "PR", "MPSP"])
def test_spark_placed_rounds_match_references(spark, graph, source, algo):
    """local_threshold=0 runs every round as a Spark job; the tests above
    use the default, which runs every round at the driver on this graph
    (its 420 edges are within the threshold)."""
    nodes, edges = graph
    spec, ref = _spec_and_reference(algo, edges, nodes, source)
    res = run(spark, edges, spec, nodes, local_threshold=0)
    assert res.spark_jobs > 1
    _assert_matches(_values(algo, spec, res), ref())


@pytest.mark.parametrize("algo", ["WCC", "BFS", "PR", "MPSP"])
def test_small_view_scratch_runs_at_driver(spark, graph, source, algo):
    """A view within the threshold runs every scratch round, the first one
    over the whole view included, at the driver: no Spark job, and the
    same answer as the all-Spark placement and the reference."""
    nodes, edges = graph
    assert len(edges) <= LOCAL_AGG_THRESHOLD
    spec, ref = _spec_and_reference(algo, edges, nodes, source)
    local = run(spark, edges, spec, nodes)
    assert local.spark_jobs == 0
    assert local.extras["local_rounds"] >= 1
    got = _values(algo, spec, local)
    _assert_matches(got, _values(algo, spec, run(spark, edges, spec, nodes, local_threshold=0)))
    _assert_matches(got, ref())


def test_view_build_starts_no_spark_job(spark, graph, spark_job_ids):
    """Building a view (both orientations) submits no Spark job; its Spark
    frame is built only when a Spark-placed round reads it."""
    _, edges = graph
    with spark_job_ids("view-build-probe") as ids:
        views = [ViewEdges(spark, edges, undirected=u) for u in (False, True)]
        for v in views:
            v.out_adj, v.in_rows, v.out_degree(np.arange(10))
            v.unpersist()
    assert ids == []


def test_out_degree_matches_groupby(spark):
    """out_degree (from the out_adj index) equals a pandas groupby count,
    zeros for vertices with no out-edges or absent from the view."""
    edges = pd.DataFrame({"src": [3, 3, 1, 7, 3, 7], "dst": [1, 2, 3, 3, 1, 0]})
    vids = np.array([0, 1, 2, 3, 5, 7, 9])
    for undirected in (False, True):
        v = ViewEdges(spark, edges, undirected=undirected)
        ref = v.pd.groupby("src").size().reindex(vids, fill_value=0)
        assert np.array_equal(v.out_degree(vids), ref.to_numpy(dtype="float64"))
    empty = ViewEdges(spark, edges.iloc[:0])
    assert np.array_equal(empty.out_degree(vids), np.zeros(len(vids)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_wcc_random_seeds(spark, seed):
    nodes, edges = social_graph(80, 250, seed=seed)
    got = as_dict(run(spark, edges, WCC(), nodes))
    ref = ref_wcc(edges, list(nodes.vid))
    assert got == {k: float(v) for k, v in ref.items()}


# ---------------------------------------------- DuckDB recursive-CTE oracle
def test_bfs_vs_duckdb_recursive(spark):
    nodes, edges = social_graph(50, 140, seed=4)
    src = int(edges.src.value_counts().idxmax())
    res = run(spark, edges, BFS(src), nodes)
    reachable = res.final_pd().query("val < @INF", local_dict={"INF": INF})
    got = spark.createDataFrame(reachable, schema="vid long, val double")
    assert_equivalent(got, bfs_sql(src, 50), e=edges[["src", "dst"]])


def test_wcc_vs_duckdb_recursive(spark):
    nodes, edges = social_graph(40, 90, seed=5)
    res = run(spark, edges, WCC(), nodes)
    got = spark.createDataFrame(res.final_pd(), schema="vid long, val double")
    rev = edges.rename(columns={"src": "dst", "dst": "src"})
    ue = pd.concat([edges[["src", "dst"]], rev[["src", "dst"]]]).drop_duplicates()
    assert_equivalent(got, wcc_sql(), v=nodes[["vid"]], ue=ue)


def test_sssp_vs_duckdb_recursive(spark):
    nodes, edges = social_graph(22, 45, seed=6)
    src = int(edges.src.value_counts().idxmax())
    res = run(spark, edges, BellmanFord(src), nodes)
    reachable = res.final_pd().query("val < @INF", local_dict={"INF": INF})
    got = spark.createDataFrame(reachable, schema="vid long, val double")
    assert_equivalent(got, sssp_sql(src, 22), e=edges)


# ------------------------------------------------------------- trajectories
def test_history_is_exact_trajectory(spark, graph, source):
    """history[i] must be the exact Jacobi iterate (min over ≤i-hop walks)."""
    nodes, edges = graph
    res = run(spark, edges, BFS(source), nodes)
    # recompute trajectory in numpy
    idx = res.idx
    state = res.spec.init_values(idx)
    e = edges
    pos = {v: i for i, v in enumerate(idx)}
    for i in range(1, len(res.history)):
        new = res.spec.init_values(idx)
        for s, d in zip(e.src, e.dst):
            new[pos[d]] = min(new[pos[d]], state[pos[s]] + 1)
        assert np.array_equal(new, res.history[i]), f"iteration {i}"
        state = new


def test_history_ends_with_fixpoint(spark, graph):
    nodes, edges = graph
    res = run(spark, edges, WCC(), nodes)
    assert np.array_equal(res.history[-1], res.history[-2])


def test_frontier_shrinks(spark, graph, source):
    """Scratch mode is frontier-based: affected counts must shrink."""
    nodes, edges = graph
    res = run(spark, edges, BFS(source), nodes)
    aff = res.extras["affected_per_iter"]
    assert aff[-1] <= aff[1]
    assert res.affected_total < res.iters * len(nodes)


def test_isolated_vertices_keep_init(spark):
    nodes = pd.DataFrame({"vid": [0, 1, 2, 9]})
    edges = pd.DataFrame({"src": [0], "dst": [1], "weight": [1.0]})
    got = as_dict(run(spark, edges, BFS(0), nodes))
    assert got == {0: 0.0, 1: 1.0, 2: INF, 9: INF}


def test_empty_graph(spark):
    nodes = pd.DataFrame({"vid": [0, 1]})
    edges = pd.DataFrame({"src": pd.Series(dtype="int64"),
                          "dst": pd.Series(dtype="int64"),
                          "weight": pd.Series(dtype="float64")})
    got = as_dict(run(spark, edges, WCC(), nodes))
    assert got == {0: 0.0, 1: 1.0}
