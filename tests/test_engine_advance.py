"""Differential-advance correctness: for every algorithm and random view
sequences with additions AND deletions, ``advance`` must equal ``scratch``
bit-for-bit on every view, and must touch fewer states when diffs are small.
"""
import numpy as np
import pandas as pd
import pytest

from repro.core.collection import from_edge_sets
from repro.datasets import social_graph
from repro.differential.algorithms import BFS, MPSP, BellmanFord, PageRank, WCC
from repro.differential.engine import (
    LOCAL_AGG_THRESHOLD,
    ViewEdges,
    engine_conf,
    run_view,
)
from repro.graph_oracle import ref_bfs, ref_pagerank, ref_sssp, ref_wcc


def perturb(edges, pool, g, n_add, n_remove):
    keep = np.ones(len(edges), dtype=bool)
    if n_remove and len(edges) > n_remove:
        keep[g.choice(len(edges), size=n_remove, replace=False)] = False
    take = pool.sample(n=min(n_add, len(pool)), random_state=int(g.integers(1 << 30)))
    out = pd.concat([edges[keep], take], ignore_index=True)
    return out.drop_duplicates(["src", "dst"]).reset_index(drop=True)


def make_sequence(seed, n_views=4, n_add=25, n_remove=25):
    nodes, all_edges = social_graph(150, 900, seed=seed)
    base = all_edges.head(450).reset_index(drop=True)
    pool = all_edges.tail(len(all_edges) - 450).reset_index(drop=True)
    g = np.random.default_rng(seed + 100)
    seq = [base]
    for _ in range(n_views - 1):
        seq.append(perturb(seq[-1], pool, g, n_add, n_remove))
    return nodes, seq


def delta(spark, nodes, e0, e1):
    """δ from the edge set ``e0`` to ``e1``, as the executor feeds it."""
    return from_edge_sets(spark, "delta", [e0, e1], nodes).delta_pd(1)


def run_sequence(spark, nodes, seq, spec_fn, local_threshold=LOCAL_AGG_THRESHOLD):
    """Returns (advance_results, scratch_results, advance_affected); the
    advances place their rounds by ``local_threshold``."""
    coll = from_edge_sets(spark, "seq", seq, nodes)
    adv_finals, scr_finals, adv_aff = [], [], []
    with engine_conf(spark):
        prev = None
        for t, edges in enumerate(seq):
            spec = spec_fn()
            view = ViewEdges(spark, edges, undirected=spec.undirected)
            if prev is None:
                adv = run_view(spark, view, spec, nodes[["vid"]])
            else:
                adv = run_view(
                    spark, view, spec, nodes[["vid"]], prev=prev,
                    delta_pd=coll.delta_pd(t), local_threshold=local_threshold,
                )
            scr = run_view(spark, view, spec_fn(), nodes[["vid"]])
            adv_finals.append(adv.final())
            scr_finals.append(scr.final())
            adv_aff.append(adv.affected_total)
            prev = adv
    return adv_finals, scr_finals, adv_aff


SPECS = {
    "WCC": lambda src: (lambda: WCC()),
    "BFS": lambda src: (lambda: BFS(src)),
    "BF": lambda src: (lambda: BellmanFord(src)),
    "PR": lambda src: (lambda: PageRank(iters=6)),
    "MPSP": lambda src: (lambda: MPSP([(src, 3), (src, 40), (7, 90)])),
}


# Both seeds with the default placement, where most advance rounds run at
# the driver; one seed per algorithm with local_threshold=0, which places
# every advance round in Spark.
@pytest.mark.parametrize(
    "seed,algo,local_threshold",
    [
        pytest.param(seed, algo, LOCAL_AGG_THRESHOLD, id=f"{seed}-{algo}")
        for algo in SPECS
        for seed in (1, 2)
    ]
    + [
        pytest.param(seed, algo, 0, id=f"spark-{seed}-{algo}")
        for seed, algo in zip((1, 2, 1, 2, 1), SPECS)
    ],
)
def test_advance_equals_scratch(spark, seed, algo, local_threshold):
    nodes, seq = make_sequence(seed)
    src = int(seq[0].src.value_counts().idxmax())
    adv, scr, _ = run_sequence(spark, nodes, seq, SPECS[algo](src), local_threshold)
    for t, (a, s) in enumerate(zip(adv, scr)):
        assert np.allclose(a, s, equal_nan=True), f"{algo} view {t}"


@pytest.mark.parametrize("algo", ["WCC", "BFS", "BF", "PR"])
def test_advance_matches_reference_on_last_view(spark, algo):
    nodes, seq = make_sequence(5)
    src = int(seq[0].src.value_counts().idxmax())
    adv, _, _ = run_sequence(spark, nodes, seq, SPECS[algo](src))
    edges = seq[-1]
    vids = list(nodes.vid)
    got = dict(zip(sorted(vids), adv[-1]))
    if algo == "WCC":
        ref = ref_wcc(edges, vids)
        assert all(got[k] == v for k, v in ref.items())
    elif algo == "BFS":
        ref = ref_bfs(edges, src, vids)
        assert all(got[k] == v for k, v in ref.items())
    elif algo == "BF":
        ref = ref_sssp(edges, src, vids)
        assert all(got[k] == v or abs(got[k] - v) < 1e-9 for k, v in ref.items())
    else:
        ref = ref_pagerank(edges, vids, iters=6)
        assert all(abs(got[k] - v) < 1e-9 for k, v in ref.items())


def test_identical_view_costs_nothing(spark):
    """δ = ∅ ⇒ the advance touches no state at all (DD's guarantee)."""
    nodes, seq = make_sequence(3, n_views=1)
    edges = seq[0]
    src = int(edges.src.value_counts().idxmax())
    with engine_conf(spark):
        view = ViewEdges(spark, edges)
        prev = run_view(spark, view, BFS(src), nodes[["vid"]])
        adv = run_view(
            spark, view, BFS(src), nodes[["vid"]], prev=prev,
            delta_pd=delta(spark, nodes, edges, edges),
        )
    assert adv.affected_total == 0
    assert adv.spark_jobs == 0
    assert np.array_equal(adv.final(), prev.final())


def test_small_diff_touches_few_states(spark):
    nodes, seq = make_sequence(7, n_views=2, n_add=3, n_remove=3)
    src = int(seq[0].src.value_counts().idxmax())
    with engine_conf(spark):
        v0 = ViewEdges(spark, seq[0])
        prev = run_view(spark, v0, BellmanFord(src), nodes[["vid"]])
        v1 = ViewEdges(spark, seq[1])
        adv = run_view(
            spark, v1, BellmanFord(src), nodes[["vid"]], prev=prev,
            delta_pd=delta(spark, nodes, seq[0], seq[1]),
        )
        scr = run_view(spark, v1, BellmanFord(src), nodes[["vid"]])
    assert adv.affected_total < scr.affected_total


def test_deletion_only_view(spark):
    """Deletions must raise distances correctly (no ghost values)."""
    nodes = pd.DataFrame({"vid": range(6)})
    e0 = pd.DataFrame(
        {"src": [0, 1, 2, 0, 4], "dst": [1, 2, 3, 4, 3], "weight": [1.0, 1.0, 1.0, 5.0, 5.0]}
    )
    e1 = e0[~((e0.src == 1) & (e0.dst == 2))].reset_index(drop=True)  # cut 1→2
    with engine_conf(spark):
        v0 = ViewEdges(spark, e0)
        prev = run_view(spark, v0, BellmanFord(0), nodes[["vid"]])
        v1 = ViewEdges(spark, e1)
        adv = run_view(
            spark, v1, BellmanFord(0), nodes[["vid"]], prev=prev,
            delta_pd=delta(spark, nodes, e0, e1),
        )
    got = adv.final_pd().set_index("vid")["val"].to_dict()
    ref = ref_sssp(e1, 0, list(nodes.vid))
    assert got == ref
    assert got[3] == 10.0  # rerouted through the expensive path
    assert got[2] == float("inf")


def test_disconnecting_component(spark):
    """Removing the only bridge must push the far side back to inf."""
    nodes = pd.DataFrame({"vid": range(4)})
    e0 = pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 3], "weight": 1.0})
    e1 = e0[e0.src != 0].reset_index(drop=True)
    with engine_conf(spark):
        v0 = ViewEdges(spark, e0)
        prev = run_view(spark, v0, BFS(0), nodes[["vid"]])
        adv = run_view(
            spark, ViewEdges(spark, e1), BFS(0), nodes[["vid"]], prev=prev,
            delta_pd=delta(spark, nodes, e0, e1),
        )
    got = adv.final_pd().set_index("vid")["val"].to_dict()
    assert got == {0: 0.0, 1: float("inf"), 2: float("inf"), 3: float("inf")}


def test_advance_longer_horizon(spark):
    """The new view may need more iterations than the old trajectory."""
    nodes = pd.DataFrame({"vid": range(6)})
    e0 = pd.DataFrame({"src": [0], "dst": [1], "weight": 1.0})
    chain = pd.DataFrame(
        {"src": [0, 1, 2, 3, 4], "dst": [1, 2, 3, 4, 5], "weight": 1.0}
    )
    with engine_conf(spark):
        prev = run_view(spark, ViewEdges(spark, e0), BFS(0), nodes[["vid"]])
        adv = run_view(
            spark, ViewEdges(spark, chain), BFS(0), nodes[["vid"]], prev=prev,
            delta_pd=delta(spark, nodes, e0, chain),
        )
    got = adv.final_pd().set_index("vid")["val"].to_dict()
    assert got == {i: float(i) for i in range(6)}
    assert adv.iters > prev.iters


def test_degree_change_propagates_for_pagerank(spark):
    """Adding an out-edge changes u's emitted mass at every iteration —
    the uses_degree dirty-set logic."""
    nodes = pd.DataFrame({"vid": range(4)})
    e0 = pd.DataFrame({"src": [0, 1], "dst": [1, 2], "weight": 1.0})
    e1 = pd.DataFrame({"src": [0, 1, 0], "dst": [1, 2, 3], "weight": 1.0})
    with engine_conf(spark):
        prev = run_view(spark, ViewEdges(spark, e0), PageRank(iters=8), nodes[["vid"]])
        adv = run_view(
            spark, ViewEdges(spark, e1), PageRank(iters=8), nodes[["vid"]], prev=prev,
            delta_pd=delta(spark, nodes, e0, e1),
        )
    got = adv.final_pd().set_index("vid")["val"].to_dict()
    ref = ref_pagerank(e1, list(nodes.vid), iters=8)
    assert all(abs(got[k] - v) < 1e-12 for k, v in ref.items())


def test_wcc_advance_from_delta_with_reverse_edges(spark):
    """Undirected advance reads only δ: its dirty set is δ's endpoints.
    Views: drop (1,0) while (0,1) stays; add (3,2) whose reverse (2,3)
    exists; add (3,1) with no reverse, which changes only its src's label;
    then drop (3,1) again."""
    nodes = pd.DataFrame({"vid": range(6)})
    e0 = pd.DataFrame({"src": [0, 1, 2, 4], "dst": [1, 0, 3, 5], "weight": 1.0})
    e1 = e0.drop(index=1).reset_index(drop=True)
    e2 = pd.concat([e1, pd.DataFrame({"src": [3], "dst": [2], "weight": 1.0})])
    e3 = pd.concat([e2, pd.DataFrame({"src": [3], "dst": [1], "weight": 1.0})])
    seq = [e.reset_index(drop=True) for e in (e0, e1, e2, e3, e2)]
    adv, scr, _ = run_sequence(spark, nodes, seq, WCC)
    for t, edges in enumerate(seq):
        ref = ref_wcc(edges, list(nodes.vid))
        want = np.array([float(ref[v]) for v in sorted(ref)])
        assert np.array_equal(adv[t], want), f"view {t}"
        assert np.array_equal(scr[t], want), f"view {t}"


def test_advance_requires_delta(spark):
    nodes, seq = make_sequence(9, n_views=1)
    with engine_conf(spark):
        view = ViewEdges(spark, seq[0])
        prev = run_view(spark, view, BFS(0), nodes[["vid"]])
        with pytest.raises(ValueError, match="delta_pd"):
            run_view(spark, view, BFS(0), nodes[["vid"]], prev=prev)


def test_advance_requires_same_spec(spark):
    nodes, seq = make_sequence(9, n_views=1)
    with engine_conf(spark):
        view = ViewEdges(spark, seq[0])
        prev = run_view(spark, view, WCC(), nodes[["vid"]])
        with pytest.raises(ValueError):
            run_view(
                spark, view, BFS(0), nodes[["vid"]], prev=prev,
                delta_pd=delta(spark, nodes, seq[0], seq[0]),
            )


def test_chained_advances_stay_exact(spark):
    """Five consecutive advances must not accumulate drift (PR floats).

    Spark's float-sum order is not deterministic, so 'exact' here means
    agreement to 1e-12 — far below anything drift would produce.
    """
    nodes, seq = make_sequence(11, n_views=6, n_add=15, n_remove=15)
    adv, scr, _ = run_sequence(spark, nodes, seq, lambda: PageRank(iters=5))
    assert np.allclose(adv[-1], scr[-1], rtol=0, atol=1e-12)
