"""Reference implementations and DuckDB recursive-CTE oracles for the graph
computations, used by tests to check engine results (DESIGN.md §5).

Pure-Python/NumPy references (any scale the tests use):
:func:`ref_wcc`, :func:`ref_bfs`, :func:`ref_sssp`, :func:`ref_pagerank`,
:func:`ref_scc` (iterative Tarjan), :func:`ref_mpsp`.

DuckDB recursive-CTE SQL builders (small graphs — path enumeration):
:func:`bfs_sql`, :func:`wcc_sql`, :func:`sssp_sql` — used together with
``repro.oracle.assert_equivalent`` so the graph fixpoints, not just the
relational pieces, are oracle-checked.
"""
from __future__ import annotations

import heapq
from collections import defaultdict, deque

import numpy as np
import pandas as pd

_INF = float("inf")


# ------------------------------------------------------------- references
def _adj(edges: pd.DataFrame, weighted: bool = False):
    adj: dict[int, list] = defaultdict(list)
    if weighted:
        for s, d, w in zip(edges.src, edges.dst, edges.weight):
            adj[int(s)].append((int(d), float(w)))
    else:
        for s, d in zip(edges.src, edges.dst):
            adj[int(s)].append(int(d))
    return adj


def ref_wcc(edges: pd.DataFrame, vertices: list[int]) -> dict[int, int]:
    """Weakly connected components via union-find; component id = min vid."""
    parent = {v: v for v in vertices}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for s, d in zip(edges.src, edges.dst):
        rs, rd = find(int(s)), find(int(d))
        if rs != rd:
            parent[max(rs, rd)] = min(rs, rd)
    return {v: find(v) for v in vertices}


def ref_bfs(edges: pd.DataFrame, source: int, vertices: list[int]) -> dict[int, float]:
    """BFS levels (inf if unreachable)."""
    adj = _adj(edges)
    dist = {v: _INF for v in vertices}
    dist[source] = 0.0
    q = deque([source])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if dist[v] == _INF:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def ref_sssp(edges: pd.DataFrame, source: int, vertices: list[int]) -> dict[int, float]:
    """Dijkstra shortest paths (weights are positive in our datasets)."""
    adj = _adj(edges, weighted=True)
    dist = {v: _INF for v in vertices}
    dist[source] = 0.0
    pq = [(0.0, source)]
    while pq:
        d, u = heapq.heappop(pq)
        if d > dist[u]:
            continue
        for v, w in adj[u]:
            nd = d + w
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(pq, (nd, v))
    return dist


def ref_pagerank(
    edges: pd.DataFrame,
    vertices: list[int],
    *,
    iters: int = 10,
    damping: float = 0.85,
) -> dict[int, float]:
    """Power iteration with exactly the engine's update semantics:
    r_0 = 1, r_i(v) = (1−d) + d·Σ_{u→v} r_{i−1}(u)/outdeg(u)."""
    idx = {v: i for i, v in enumerate(sorted(vertices))}
    n = len(idx)
    src = np.array([idx[int(s)] for s in edges.src], dtype="int64")
    dst = np.array([idx[int(d)] for d in edges.dst], dtype="int64")
    deg = np.zeros(n)
    np.add.at(deg, src, 1.0)
    r = np.ones(n)
    for _ in range(iters):
        contrib = np.where(deg[src] > 0, r[src] / deg[src], 0.0)
        agg = np.zeros(n)
        np.add.at(agg, dst, contrib)
        r = (1 - damping) + damping * agg
    inv = {i: v for v, i in idx.items()}
    return {inv[i]: float(r[i]) for i in range(n)}


def ref_scc(edges: pd.DataFrame, vertices: list[int]) -> dict[int, int]:
    """SCCs via iterative Tarjan; component id = max vid in the component
    (matching the coloring algorithm's id convention)."""
    adj = _adj(edges)
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    comp: dict[int, int] = {}
    counter = [0]

    for root in vertices:
        if root in index:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj[w])))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                members = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    members.append(w)
                    if w == v:
                        break
                cid = max(members)
                for w in members:
                    comp[w] = cid
    return comp


def ref_mpsp(
    edges: pd.DataFrame, pairs: list[tuple[int, int]], vertices: list[int]
) -> list[float]:
    """Per-pair shortest-path distances via Dijkstra."""
    out = []
    for s, d in pairs:
        out.append(ref_sssp(edges, s, vertices)[d])
    return out


# ------------------------------------------------- DuckDB recursive oracles
def bfs_sql(source: int, max_hops: int) -> str:
    """Recursive-CTE BFS over table ``e(src, dst)`` → (vid, val)."""
    return f"""
    WITH RECURSIVE r(vid, d) AS (
        SELECT CAST({source} AS BIGINT), 0
        UNION
        SELECT e.dst, r.d + 1 FROM r JOIN e ON e.src = r.vid
        WHERE r.d < {max_hops}
    )
    SELECT vid, CAST(MIN(d) AS DOUBLE) AS val FROM r GROUP BY vid
    """


def wcc_sql() -> str:
    """Recursive-CTE WCC over ``v(vid)`` and symmetrized ``ue(src, dst)``
    → (vid, val) with val = min reachable vid."""
    return """
    WITH RECURSIVE r(vid, lbl) AS (
        SELECT vid, vid FROM v
        UNION
        SELECT ue.dst, r.lbl FROM r JOIN ue ON ue.src = r.vid
    )
    SELECT vid, CAST(MIN(lbl) AS DOUBLE) AS val FROM r GROUP BY vid
    """


def sssp_sql(source: int, max_hops: int) -> str:
    """Recursive-CTE weighted SSSP over ``e(src, dst, weight)`` → (vid, val).
    Bounded by hop count; only use on tiny graphs (path enumeration)."""
    return f"""
    WITH RECURSIVE r(vid, d, hops) AS (
        SELECT CAST({source} AS BIGINT), CAST(0 AS DOUBLE), 0
        UNION
        SELECT e.dst, r.d + e.weight, r.hops + 1 FROM r JOIN e ON e.src = r.vid
        WHERE r.hops < {max_hops}
    )
    SELECT vid, MIN(d) AS val FROM r GROUP BY vid
    """
