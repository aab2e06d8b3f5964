"""Analytics Computation Executor tests (paper §3.2.2 + §5)."""
import time

import numpy as np
import pandas as pd
import pytest

import repro.core.executor as executor
from repro.core.collection import from_edge_sets
from repro.core.executor import run_collection
from repro.datasets import social_graph
from repro.differential.algorithms import BFS, BellmanFord, PageRank, WCC
from repro.differential.scc import SCC


@pytest.fixture(scope="module")
def coll(spark):
    nodes, all_edges = social_graph(100, 500, seed=8)
    base = all_edges.head(300).reset_index(drop=True)
    pool = all_edges.tail(200).reset_index(drop=True)
    g = np.random.default_rng(0)
    seq = [base]
    for _ in range(4):
        cur = seq[-1]
        keep = np.ones(len(cur), dtype=bool)
        keep[g.choice(len(cur), size=15, replace=False)] = False
        add = pool.sample(n=15, random_state=int(g.integers(1 << 30)))
        seq.append(
            pd.concat([cur[keep], add], ignore_index=True)
            .drop_duplicates(["src", "dst"])
            .reset_index(drop=True)
        )
    return from_edge_sets(spark, "exec-test", seq, nodes)


@pytest.fixture(scope="module")
def source(coll):
    return int(coll.view_edges_pd(0).src.value_counts().idxmax())


@pytest.mark.parametrize("algo_name", ["WCC", "BFS", "PR"])
def test_strategies_produce_identical_results(coll, source, algo_name):
    mk = {
        "WCC": lambda: WCC(),
        "BFS": lambda: BFS(source),
        "PR": lambda: PageRank(iters=4),
    }[algo_name]
    reps = {
        s: run_collection(coll, mk(), s, ell=2) for s in ("diff", "scratch", "adaptive")
    }
    for t in range(coll.k):
        a = reps["diff"].results[t]["val"].to_numpy()
        b = reps["scratch"].results[t]["val"].to_numpy()
        c = reps["adaptive"].results[t]["val"].to_numpy()
        assert np.allclose(a, b, equal_nan=True, rtol=0, atol=1e-12)
        assert np.allclose(a, c, equal_nan=True, rtol=0, atol=1e-12)


def test_diff_strategy_modes(coll, source):
    rep = run_collection(coll, BFS(source), "diff", keep_results=False)
    assert rep.modes == ["scratch"] + ["diff"] * (coll.k - 1)


def test_scratch_strategy_modes(coll, source):
    rep = run_collection(coll, BFS(source), "scratch", keep_results=False)
    assert rep.modes == ["scratch"] * coll.k


def test_adaptive_bootstrap_modes(coll, source):
    rep = run_collection(coll, BFS(source), "adaptive", ell=2, keep_results=False)
    assert rep.modes[0] == "scratch"
    assert rep.modes[1] == "diff"


def test_scc_falls_back_to_scratch(coll):
    rep = run_collection(coll, SCC(), "diff", keep_results=True)
    assert rep.modes == ["scratch"] * coll.k  # supports_advance=False
    # results still per-view correct vs Tarjan on the last view
    from repro.graph_oracle import ref_scc

    last = rep.results[-1].set_index("vid")["val"].astype("int64").to_dict()
    assert last == ref_scc(coll.view_edges_pd(coll.k - 1), sorted(last))


def test_stats_recorded(coll, source):
    rep = run_collection(coll, BellmanFord(source), "diff", keep_results=False)
    assert len(rep.stats) == coll.k
    s = rep.stats[2]
    assert s.view_size == coll.view_sizes[2]
    assert s.delta_size == coll.diff_counts[2]
    assert s.seconds > 0
    assert rep.total_seconds == pytest.approx(sum(x.seconds for x in rep.stats))


def test_views_built_in_their_timed_region_and_released(coll, source, monkeypatch):
    """Each view is built inside its own ViewStat.seconds, released exactly
    once, and at most two views are cached at a time (warm-up included)."""
    pause = 0.2
    built, alive, peak = [], set(), []

    class SlowViewEdges(executor.ViewEdges):
        def __init__(self, *args, **kwargs):
            time.sleep(pause)
            super().__init__(*args, **kwargs)
            self.released = 0
            built.append(self)
            alive.add(id(self))
            peak.append(len(alive))

        def unpersist(self):
            self.released += 1
            alive.discard(id(self))
            super().unpersist()

    monkeypatch.setattr(executor, "ViewEdges", SlowViewEdges)
    rep = run_collection(
        coll, BFS(source), "adaptive", ell=2, keep_results=False, warmup=True
    )
    assert all(s.seconds >= pause for s in rep.stats)
    assert len(built) == coll.k + 1  # the warm-up builds its own view 0
    assert [v.released for v in built] == [1] * len(built)
    assert max(peak) <= 2


def test_unknown_strategy(coll):
    with pytest.raises(ValueError):
        run_collection(coll, WCC(), "turbo")
