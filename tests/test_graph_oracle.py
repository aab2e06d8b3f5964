"""Self-consistency tests for the reference implementations (pure Python)."""
import numpy as np
import pandas as pd

from repro.graph_oracle import (
    ref_bfs,
    ref_mpsp,
    ref_pagerank,
    ref_scc,
    ref_sssp,
    ref_wcc,
)

INF = float("inf")


def edges_of(pairs, weights=None):
    df = pd.DataFrame(pairs, columns=["src", "dst"])
    df["weight"] = weights if weights is not None else 1.0
    return df


def test_wcc_two_components():
    e = edges_of([(0, 1), (1, 2), (3, 4)])
    comp = ref_wcc(e, [0, 1, 2, 3, 4])
    assert comp == {0: 0, 1: 0, 2: 0, 3: 3, 4: 3}


def test_wcc_direction_ignored():
    e = edges_of([(2, 0), (1, 2)])
    comp = ref_wcc(e, [0, 1, 2])
    assert set(comp.values()) == {0}


def test_wcc_isolated_vertex():
    comp = ref_wcc(edges_of([(0, 1)]), [0, 1, 5])
    assert comp[5] == 5


def test_bfs_levels():
    e = edges_of([(0, 1), (1, 2), (0, 2), (2, 3)])
    d = ref_bfs(e, 0, [0, 1, 2, 3, 4])
    assert d == {0: 0, 1: 1, 2: 1, 3: 2, 4: INF}


def test_bfs_respects_direction():
    d = ref_bfs(edges_of([(1, 0)]), 0, [0, 1])
    assert d == {0: 0, 1: INF}


def test_sssp_prefers_cheap_path():
    e = edges_of([(0, 1), (1, 2), (0, 2)], [1.0, 1.0, 5.0])
    d = ref_sssp(e, 0, [0, 1, 2])
    assert d == {0: 0.0, 1: 1.0, 2: 2.0}


def test_sssp_unreachable():
    d = ref_sssp(edges_of([(0, 1)]), 0, [0, 1, 2])
    assert d[2] == INF


def test_pagerank_sums_close_to_n_without_dangling():
    # cycle: no dangling mass lost, ranks all equal 1.0
    e = edges_of([(0, 1), (1, 2), (2, 0)])
    r = ref_pagerank(e, [0, 1, 2], iters=20)
    assert all(abs(v - 1.0) < 1e-9 for v in r.values())


def test_pagerank_sink_floor():
    # vertex with no in-edges sits at 1-d
    e = edges_of([(0, 1)])
    r = ref_pagerank(e, [0, 1], iters=10, damping=0.85)
    assert abs(r[0] - 0.15) < 1e-12


def test_pagerank_edgeless_view():
    # no edges: every rank is the teleport term 1-d
    e = edges_of([])
    r = ref_pagerank(e, [0, 1, 2], iters=10, damping=0.85)
    assert set(r) == {0, 1, 2}
    assert all(abs(v - 0.15) < 1e-12 for v in r.values())


def test_scc_cycle_plus_tail():
    e = edges_of([(0, 1), (1, 2), (2, 0), (2, 3)])
    comp = ref_scc(e, [0, 1, 2, 3])
    assert comp[0] == comp[1] == comp[2] == 2
    assert comp[3] == 3


def test_scc_two_cycles():
    e = edges_of([(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)])
    comp = ref_scc(e, [0, 1, 2, 3])
    assert comp[0] == comp[1] == 1
    assert comp[2] == comp[3] == 3


def test_scc_dag_all_singletons():
    e = edges_of([(0, 1), (1, 2), (0, 2)])
    comp = ref_scc(e, [0, 1, 2])
    assert comp == {0: 0, 1: 1, 2: 2}


def test_mpsp():
    e = edges_of([(0, 1), (1, 2)], [2.0, 3.0])
    assert ref_mpsp(e, [(0, 2), (2, 0)], [0, 1, 2]) == [5.0, INF]
