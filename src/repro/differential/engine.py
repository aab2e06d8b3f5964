"""The differential vertex-centric engine — this repo's substitute for
Differential Dataflow (see DESIGN.md §2/§3 for the full rationale).

An algorithm is an :class:`AlgoSpec` with Jacobi-from-init semantics::

    S_0     = init
    S_i(v)  = update(init(v), agg over in-edges (u,v): message(S_{i-1}(u), w, deg(u)))

so ``S_i`` is the *exact* iteration-i trajectory state — DD's state at
timestamp ``<view, i>``. The engine keeps the whole trajectory (history).

Execution modes (both through :func:`run_view`):

- **scratch** (``prev=None``): frontier-based — iteration i only recomputes
  out-neighbours of vertices whose value changed at i−1. This matches the
  paper's observation (§5) that "running from scratch" still shares
  computation *across iterations* because the program stays differential.
- **advance** (``prev`` = the previous view's :class:`RunResult`, plus the
  edge diff δ): replays the trajectory against the new view's edges,
  recomputing only *affected* vertices — endpoints of δ (every iteration)
  plus out-neighbours of vertices whose value diverged from the old
  trajectory.
  Unaffected vertices inherit the old trajectory value without any work,
  which is DD's "empty input differences ⇒ empty output differences".

Work placement: each round's message generation and aggregation — the
join of the feeding edges with the state, then a groupBy — runs where its
size calls for. A round whose edges (the whole view for a scratch run's
first round, the in-edges of the affected set otherwise) number at most
``local_threshold`` runs at the driver over the view's pandas edges;
larger rounds run as Spark jobs over the view's Spark frame, which is
built and cached on the first such round. Trajectories are NumPy arrays
over a fixed vertex index and the affected-set bookkeeping uses CSR
indices over the pandas edges (DD's in-memory arrangements; DESIGN.md §2).
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F

_AGG_FN = {"min": F.min, "max": F.max, "sum": F.sum}

#: shuffle partitions used for engine jobs (reproduction-scale graphs are
#: small; the session default of 64 would be pure scheduler overhead).
ENGINE_SHUFFLE_PARTITIONS = "8"

#: Small-round fast path: when the edges feeding one dataflow round number
#: at most this many, the round's aggregate is computed at the driver (a
#: pandas mirror of the same join+groupBy) instead of scheduling a Spark
#: job. This is the PySpark equivalent of DD doing small work directly in
#: its in-memory arrangements — without it, fixed per-job scheduling cost
#: would hide the work-proportional-to-differences behaviour the paper
#: measures. Large rounds (scratch runs over large views, saturated
#: affected sets) still execute as Spark dataflow jobs.
LOCAL_AGG_THRESHOLD = 4000


@contextmanager
def engine_conf(spark: SparkSession):
    """Temporarily lower shuffle partitions for the engine's small jobs."""
    old = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", ENGINE_SHUFFLE_PARTITIONS)
    try:
        yield
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", old)


class _CSR:
    """Sorted-key adjacency index (DD's indexed arrangement): maps a set of
    keys to the concatenation of their value lists in O(|query| log n)."""

    def __init__(self, keys: np.ndarray, values: np.ndarray) -> None:
        order = np.argsort(keys, kind="stable")
        k = keys[order]
        self.v = values[order]
        self.uk, starts = np.unique(k, return_index=True)
        self.starts = starts
        self.ends = np.append(starts[1:], len(k))

    def find(self, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(hit, pos)``: which ``query`` keys are present, and the index in
        ``uk`` of each present one."""
        if len(self.uk) == 0:
            return np.zeros(len(query), dtype=bool), np.empty(0, dtype="int64")
        pos = np.searchsorted(self.uk, query)
        hit = (pos < len(self.uk)) & (self.uk[np.minimum(pos, len(self.uk) - 1)] == query)
        return hit, pos[hit]

    def gather(self, query: np.ndarray) -> np.ndarray:
        """Values for every key in ``query`` (absent keys contribute none)."""
        _, pos = self.find(query)
        if len(pos) == 0:
            return np.empty(0, dtype=self.v.dtype)
        parts = [self.v[s:e] for s, e in zip(self.starts[pos], self.ends[pos])]
        return np.concatenate(parts)


class ViewEdges:
    """One view's edge stream: pandas edges with driver indices, plus a
    cached Spark frame built on first use by a Spark-placed round.

    ``undirected=True`` symmetrizes the edge set (WCC propagates both ways).
    """

    def __init__(
        self, spark: SparkSession, edges_pd: pd.DataFrame, *, undirected: bool = False
    ) -> None:
        e = edges_pd[["src", "dst"] + (["weight"] if "weight" in edges_pd else [])]
        e = e.copy()
        if "weight" not in e.columns:
            e["weight"] = 1.0
        if undirected:
            rev = e.rename(columns={"src": "dst", "dst": "src"})
            e = (
                pd.concat([e, rev[["src", "dst", "weight"]]], ignore_index=True)
                .drop_duplicates(["src", "dst"])
                .reset_index(drop=True)
            )
        e["src"] = e["src"].astype("int64")
        e["dst"] = e["dst"].astype("int64")
        e["weight"] = e["weight"].astype("float64")
        self.pd = e.reset_index(drop=True)
        self.undirected = undirected
        self._spark = spark
        self._sdf: DataFrame | None = None

    @property
    def sdf(self) -> DataFrame:
        """The edges as a cached Spark frame, built on the first read."""
        if self._sdf is None:
            self._sdf = self._spark.createDataFrame(
                self.pd, schema="src long, dst long, weight double"
            ).coalesce(4).cache()
        return self._sdf

    @property
    def n_edges(self) -> int:
        return len(self.pd)

    @property
    def out_adj(self) -> _CSR:
        """src → dst adjacency index (lazy)."""
        if getattr(self, "_out_adj", None) is None:
            self._out_adj = _CSR(
                self.pd["src"].to_numpy(), self.pd["dst"].to_numpy()
            )
        return self._out_adj

    @property
    def in_rows(self) -> _CSR:
        """dst → edge-row-position index (lazy)."""
        if getattr(self, "_in_rows", None) is None:
            self._in_rows = _CSR(
                self.pd["dst"].to_numpy(),
                np.arange(len(self.pd), dtype="int64"),
            )
        return self._in_rows

    def out_degree(self, vids: np.ndarray) -> np.ndarray:
        """Out-degree aligned to ``vids`` (float64, zeros for absent)."""
        adj = self.out_adj
        hit, pos = adj.find(vids)
        deg = np.zeros(len(vids), dtype="float64")
        deg[hit] = adj.ends[pos] - adj.starts[pos]
        return deg

    def unpersist(self) -> None:
        """Release the Spark frame, if a round built it."""
        if self._sdf is not None:
            self._sdf.unpersist()
            self._sdf = None


class AlgoSpec:
    """Base class for engine algorithms. Subclasses set the class attrs and
    implement :meth:`build_index`, :meth:`init_values`, :meth:`message`,
    :meth:`update`."""

    name: str = "algo"
    agg: str = "min"  # min | max | sum
    fixed_iters: int | None = None  # run exactly this many iterations (PR)
    uses_degree: bool = False  # message reads src out-degree (PR)
    undirected: bool = False  # symmetrize edges (WCC)
    keyed: bool = False  # state keyed by (vid, q) (MPSP)
    supports_advance: bool = True  # False → executor falls back to scratch
    tol: float = 0.0  # change-detection tolerance

    # ---- to implement -------------------------------------------------
    def build_index(self, vertices: pd.DataFrame) -> pd.Index:
        """State index: plain vid Int64Index, or (vid, q) MultiIndex."""
        raise NotImplementedError

    def init_values(self, idx: pd.Index) -> np.ndarray:
        """Trajectory state at iteration 0 (float64)."""
        raise NotImplementedError

    def message(self) -> Column:
        """Message expression over columns ``val``, ``weight``, ``deg``."""
        raise NotImplementedError

    def message_np(
        self, val: np.ndarray, weight: np.ndarray, deg: np.ndarray | None
    ) -> np.ndarray:
        """NumPy mirror of :meth:`message`, used by the small-delta fast
        path (see :data:`LOCAL_AGG_THRESHOLD`). Must compute exactly the
        same values as the Spark expression."""
        raise NotImplementedError

    def update(self, init_vals: np.ndarray, agg_vals: np.ndarray) -> np.ndarray:
        """Combine init with the (NaN-where-absent) aggregate."""
        raise NotImplementedError

    # ---- defaults ------------------------------------------------------
    @property
    def filters_identity(self) -> bool:
        """Whether ±inf states are aggregation identities whose messages can
        be skipped (true for min/max shortest-path style algorithms)."""
        return self.agg in ("min", "max")


@dataclass
class RunResult:
    """Outcome of running a spec on one view: the full trajectory plus
    run metrics. ``history[i]`` is the exact iteration-i state."""

    spec: AlgoSpec
    idx: pd.Index
    history: list[np.ndarray]
    deg: np.ndarray | None
    seconds: float
    iters: int
    affected_total: int
    spark_jobs: int
    mode: str  # "scratch" | "diff"
    extras: dict = field(default_factory=dict)

    def final(self) -> np.ndarray:
        return self.history[-1]

    def final_pd(self) -> pd.DataFrame:
        """Final state as a tidy frame (vid[, q], val)."""
        if isinstance(self.idx, pd.MultiIndex):
            out = self.idx.to_frame(index=False)
            out.columns = ["vid", "q"]
        else:
            out = pd.DataFrame({"vid": self.idx.to_numpy()})
        out["val"] = self.final()
        return out


# ----------------------------------------------------------------- helpers
def _vid_level(idx: pd.Index) -> np.ndarray:
    return (
        idx.get_level_values(0).to_numpy()
        if isinstance(idx, pd.MultiIndex)
        else idx.to_numpy()
    )


def _state_frame(
    idx: pd.Index, vals: np.ndarray, positions: np.ndarray, deg: np.ndarray | None
) -> tuple[pd.DataFrame, str]:
    """Build the (vid[, q], val[, deg]) frame + schema for a state subset."""
    sub = idx[positions]
    if isinstance(idx, pd.MultiIndex):
        pdf = sub.to_frame(index=False)
        pdf.columns = ["vid", "q"]
        schema = "vid long, q long, val double"
    else:
        pdf = pd.DataFrame({"vid": sub.to_numpy()})
        schema = "vid long, val double"
    pdf["val"] = vals[positions]
    if deg is not None:
        pdf["deg"] = deg[positions]
        schema += ", deg double"
    return pdf, schema


def _key_frame(idx: pd.Index, positions: np.ndarray) -> tuple[pd.DataFrame, str]:
    sub = idx[positions]
    if isinstance(idx, pd.MultiIndex):
        pdf = sub.to_frame(index=False)
        pdf.columns = ["vid", "q"]
        return pdf, "vid long, q long"
    return pd.DataFrame({"vid": sub.to_numpy()}), "vid long"


def _raw_positions(idx: pd.Index, keys: pd.DataFrame) -> np.ndarray:
    """Global positions of (vid[, q]) key rows; -1 for unknown keys."""
    if isinstance(idx, pd.MultiIndex):
        mi = pd.MultiIndex.from_arrays([keys["vid"], keys["q"]])
        return idx.get_indexer(mi)
    return idx.get_indexer(keys["vid"])


def _positions_of(idx: pd.Index, keys: pd.DataFrame) -> np.ndarray:
    """Global positions of (vid[, q]) key rows; unknown keys dropped."""
    pos = _raw_positions(idx, keys)
    return pos[pos >= 0]


def _expand_out_neighbours(
    idx: pd.Index, view: "ViewEdges", changed_pos: np.ndarray
) -> np.ndarray:
    """Positions of out-neighbours (in the new view) of changed keys."""
    if len(changed_pos) == 0:
        return np.empty(0, dtype="int64")
    if isinstance(idx, pd.MultiIndex):
        ch = idx[changed_pos].to_frame(index=False)
        ch.columns = ["vid", "q"]
        frames = []
        for q, grp in ch.groupby("q"):
            dsts = np.unique(view.out_adj.gather(np.unique(grp["vid"].to_numpy())))
            if len(dsts):
                frames.append(pd.DataFrame({"vid": dsts, "q": q}))
        if not frames:
            return np.empty(0, dtype="int64")
        return _positions_of(idx, pd.concat(frames, ignore_index=True))
    vids = np.unique(idx[changed_pos].to_numpy())
    dsts = np.unique(view.out_adj.gather(vids))
    return _positions_of(idx, pd.DataFrame({"vid": dsts}))


def _in_edge_subset(
    idx: pd.Index, view: "ViewEdges", aff_pos: np.ndarray
) -> tuple[pd.DataFrame, np.ndarray]:
    """The in-edges feeding the affected keys, plus the positions of the
    message *sources* whose state is needed to recompute them."""
    if isinstance(idx, pd.MultiIndex):
        aff = idx[aff_pos].to_frame(index=False)
        aff.columns = ["vid", "q"]
        dst_vids = np.unique(aff["vid"].to_numpy())
        rows = view.in_rows.gather(dst_vids)
        sub = view.pd.iloc[np.sort(rows)]
        hit = sub[["src", "dst"]].merge(
            aff, left_on="dst", right_on="vid"
        )[["src", "q"]].drop_duplicates()
        hit.columns = ["vid", "q"]
        return sub, _positions_of(idx, hit)
    dst_vids = np.unique(idx[aff_pos].to_numpy())
    rows = view.in_rows.gather(dst_vids)
    sub = view.pd.iloc[np.sort(rows)]
    srcs = pd.unique(sub["src"])
    return sub, _positions_of(idx, pd.DataFrame({"vid": srcs}))


def _aggregate_local(
    spec: AlgoSpec,
    idx: pd.Index,
    state: np.ndarray,
    deg: np.ndarray | None,
    sub_edges: pd.DataFrame,
    src_pos: np.ndarray,
    aff_pos: np.ndarray,
) -> pd.DataFrame:
    """Driver-side mirror of :func:`_aggregate` for tiny rounds: the same
    join + groupBy over the in-edge subset, in pandas."""
    key = ["vid", "q"] if spec.keyed else ["vid"]
    if spec.filters_identity:
        src_pos = src_pos[np.isfinite(state[src_pos])]
    if len(src_pos) == 0 or len(sub_edges) == 0:
        return pd.DataFrame(columns=key + ["agg"])
    st_pd, _ = _state_frame(idx, state, src_pos, deg)
    m = sub_edges.merge(st_pd, left_on="src", right_on="vid")
    if len(m) == 0:
        return pd.DataFrame(columns=key + ["agg"])
    msg = spec.message_np(
        m["val"].to_numpy(),
        m["weight"].to_numpy(),
        m["deg"].to_numpy() if deg is not None else None,
    )
    mdf = pd.DataFrame({"vid": m["dst"].to_numpy(), "msg": msg})
    if spec.keyed:
        mdf["q"] = m["q"].to_numpy()
        aff = idx[aff_pos].to_frame(index=False)
        aff.columns = ["vid", "q"]
        mdf = mdf.merge(aff, on=["vid", "q"])
    else:
        aff = pd.DataFrame({"vid": idx[aff_pos].to_numpy()})
        mdf = mdf.merge(aff, on="vid")
    fn = {"min": "min", "max": "max", "sum": "sum"}[spec.agg]
    agg = mdf.groupby(key, as_index=False)["msg"].agg(fn)
    return agg.rename(columns={"msg": "agg"})


def _aggregate(
    spark: SparkSession,
    view: ViewEdges,
    spec: AlgoSpec,
    idx: pd.Index,
    state: np.ndarray,
    deg: np.ndarray | None,
    src_pos: np.ndarray,
    aff_pos: np.ndarray | None,
) -> pd.DataFrame:
    """One dataflow round in Spark: messages = edges ⋈ state, then groupBy
    aggregation, restricted to affected destinations (``aff_pos``; None
    keeps every destination). Returns a pandas frame (vid[, q], agg)."""
    key = ["vid", "q"] if spec.keyed else ["vid"]
    if spec.filters_identity:
        vals = state[src_pos]
        src_pos = src_pos[np.isfinite(vals)]
    if len(src_pos) == 0:
        return pd.DataFrame(columns=key + ["agg"])
    st_pd, st_schema = _state_frame(idx, state, src_pos, deg)
    st = spark.createDataFrame(st_pd, schema=st_schema)
    e = view.sdf
    # The state (and affected-set) frames are small driver-built relations —
    # DD co-locates them with the edge arrangement, so they are broadcast
    # explicitly (the session default disables *automatic* broadcasts). The
    # aggregation below still shuffles, sized by the actual message volume,
    # which is exactly DD's work-proportional-to-differences cost model.
    joined = e.join(F.broadcast(st), e.src == st.vid)
    sel = [e.dst.alias("vid")] + ([st.q] if spec.keyed else [])
    msgs = joined.select(*sel, spec.message().alias("msg"))
    if aff_pos is not None:
        aff_pd, aff_schema = _key_frame(idx, aff_pos)
        aff_sdf = spark.createDataFrame(aff_pd, schema=aff_schema)
        msgs = msgs.join(F.broadcast(aff_sdf), on=key, how="left_semi")
    agg = msgs.groupBy(*key).agg(_AGG_FN[spec.agg]("msg").alias("agg"))
    return agg.toPandas()


def _effective_delta_dirty(
    spec: AlgoSpec, idx: pd.Index, delta_pd: pd.DataFrame
) -> np.ndarray:
    """Positions affected by the edge diff at *every* iteration: dst
    endpoints of δ. Undirected specs add δ's src endpoints: an edge (a, b)
    of the symmetrized view changes only if δ holds (a, b) or (b, a), so
    this covers the symmetrized view's diff."""
    cols = ["dst", "src"] if spec.undirected else ["dst"]
    dsts = pd.unique(delta_pd[cols].to_numpy().ravel())
    if isinstance(idx, pd.MultiIndex):
        dsts = pd.MultiIndex.from_product([dsts, idx.get_level_values(1).unique()])
    pos = idx.get_indexer(dsts)
    return np.unique(pos[pos >= 0])


def run_view(
    spark: SparkSession,
    view: ViewEdges,
    spec: AlgoSpec,
    vertices: pd.DataFrame,
    *,
    prev: RunResult | None = None,
    delta_pd: pd.DataFrame | None = None,
    max_iters: int | None = None,
    local_threshold: int = LOCAL_AGG_THRESHOLD,
) -> RunResult:
    """Run ``spec`` on ``view`` — from scratch (``prev=None``) or
    differentially against the previous view's trajectory, which needs
    ``delta_pd`` (δC_t): the only input describing how the edges changed."""
    t_start = time.perf_counter()
    if prev is not None and delta_pd is None:
        raise ValueError("advance needs the edge diff delta_pd")
    if prev is not None and prev.spec is not spec and prev.spec.name != spec.name:
        raise ValueError("advance must reuse the same algorithm spec")
    idx = prev.idx if prev is not None else spec.build_index(vertices)
    init = spec.init_values(idx)
    n = len(idx)
    vids = _vid_level(idx)
    deg = view.out_degree(vids) if spec.uses_degree else None
    limit = max_iters if max_iters is not None else n + 2
    if spec.fixed_iters is not None:
        limit = spec.fixed_iters

    hist_old = prev.history if prev is not None else None
    horizon = len(hist_old) - 1 if prev is not None else 0

    states: list[np.ndarray] = [init.copy()]
    if prev is None:
        dirty = np.empty(0, dtype="int64")
        changed = None  # sentinel: "everything" (first scratch round)
    else:
        dirty = _effective_delta_dirty(spec, idx, delta_pd)
        if spec.uses_degree:
            # A vertex whose out-degree changed emits different messages at
            # *every* iteration (msg = f(val, deg)), so its out-neighbours
            # in the new view are permanently dirty, like δ endpoints.
            deg_changed = np.flatnonzero(deg != prev.deg)
            dirty = np.union1d(
                dirty, _expand_out_neighbours(idx, view, deg_changed)
            )
        changed = np.empty(0, dtype="int64")

    total_affected = 0
    jobs = 0
    local_rounds = 0
    affected_per_iter: list[int] = []
    changed_per_iter: list[int] = []
    it = 0
    while it < limit:
        it += 1
        # ---- affected set -------------------------------------------------
        if changed is None:  # scratch, first round: all destinations
            aff_pos = None
        else:
            nbrs = _expand_out_neighbours(idx, view, changed)
            aff_pos = np.union1d(dirty, nbrs)
        base = (
            states[it - 1]
            if prev is None
            else hist_old[min(it, horizon)]
        )
        if aff_pos is not None and len(aff_pos) == 0:
            state_i = base.copy()
            states.append(state_i)
            changed = np.empty(0, dtype="int64")
            affected_per_iter.append(0)
            changed_per_iter.append(0)
            if spec.fixed_iters is None and it >= horizon and np.array_equal(
                states[it], states[it - 1]
            ):
                break
            continue
        # ---- one dataflow round -------------------------------------------
        whole_view = aff_pos is None
        if whole_view:  # every key, fed by every edge
            aff_pos = np.arange(n, dtype="int64")
            sub_edges, src_pos = view.pd, aff_pos
        else:
            sub_edges, src_pos = _in_edge_subset(idx, view, aff_pos)
        if len(sub_edges) <= local_threshold:
            agg_pd = _aggregate_local(
                spec, idx, states[it - 1], deg, sub_edges, src_pos, aff_pos
            )
            local_rounds += 1
        else:
            agg_pd = _aggregate(
                spark, view, spec, idx, states[it - 1], deg, src_pos,
                None if whole_view else aff_pos,
            )
            jobs += 1
        total_affected += len(aff_pos)
        agg_arr = np.full(len(aff_pos), np.nan)
        if len(agg_pd):
            raw = _raw_positions(idx, agg_pd)
            valid = raw >= 0
            g_pos = raw[valid]
            g_vals = agg_pd["agg"].to_numpy(dtype="float64")[valid]
            loc = np.searchsorted(aff_pos, g_pos)
            agg_arr[loc] = g_vals
        new_vals = spec.update(init[aff_pos], agg_arr)
        old_vals = base[aff_pos]
        with np.errstate(invalid="ignore"):
            diff = ~np.isclose(
                new_vals, old_vals, rtol=0.0, atol=spec.tol, equal_nan=True
            )
        changed = aff_pos[diff]
        state_i = base.copy()
        state_i[aff_pos] = new_vals
        states.append(state_i)
        affected_per_iter.append(int(len(aff_pos)))
        changed_per_iter.append(int(len(changed)))
        if spec.fixed_iters is None:
            # Fixpoint: past the old horizon (histories always end with two
            # equal states, so the base is already frozen at `horizon`) and
            # the new trajectory stopped moving. `changed` (divergence from
            # the *old* trajectory) can stay non-empty forever after a
            # permanent value shift, so it must not gate termination.
            if it >= horizon and np.array_equal(states[it], states[it - 1]):
                break
    else:
        if spec.fixed_iters is None:
            raise RuntimeError(
                f"{spec.name}: no fixpoint within {limit} iterations"
            )

    return RunResult(
        spec=spec,
        idx=idx,
        history=states,
        deg=deg,
        seconds=time.perf_counter() - t_start,
        iters=it,
        affected_total=total_affected,
        spark_jobs=jobs,
        mode="scratch" if prev is None else "diff",
        extras={
            "affected_per_iter": affected_per_iter,
            "changed_per_iter": changed_per_iter,
            "local_rounds": local_rounds,
        },
    )
