"""End-to-end view-collection materialization tests (paper §3.2.1)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.collection import (
    collection_from_gvdl,
    from_edge_sets,
    materialize_collection,
)
from repro.datasets import call_graph
from repro.gvdl import parse_predicate, to_spark_column, to_sql
from repro.oracle import assert_equivalent
from repro.storage.store import GraphStore

GVDL = """create view collection call_analysis on Calls
 [D5: duration <= 5 and year <= 2019],
 [D10: duration <= 10 and year <= 2019],
 [D15: duration <= 15 and year <= 2019],
 [D30: duration <= 30 and year <= 2019]"""


@pytest.fixture(scope="module")
def store(spark):
    nodes, edges = call_graph()
    return GraphStore(spark, nodes, edges, name="Calls")


@pytest.fixture(scope="module")
def coll(store):
    return collection_from_gvdl(store, GVDL, order="given")


def test_names_and_k(coll):
    assert coll.k == 4
    assert coll.names == ["D5", "D10", "D15", "D30"]


def test_view_sizes_monotone_for_inclusion_chain(coll):
    assert coll.view_sizes == sorted(coll.view_sizes)


def test_first_delta_is_first_view(coll):
    assert coll.diff_counts[0] == coll.view_sizes[0]


def test_inclusion_chain_has_no_deletions(coll):
    for t in range(1, coll.k):
        assert (coll.delta_pd(t).sign == 1).all()


def test_view_edges_match_duckdb(spark, store, coll):
    """Each materialized view must equal the predicate evaluated by DuckDB."""
    preds = {
        "D5": "duration <= 5 and year <= 2019",
        "D15": "duration <= 15 and year <= 2019",
    }
    for name, pred in preds.items():
        t = coll.names.index(name)
        got = spark.createDataFrame(
            coll.view_edges_pd(t)[["src", "dst"]], schema="src long, dst long"
        )
        sql = f"SELECT src, dst FROM evf WHERE {to_sql(parse_predicate(pred))}"
        assert_equivalent(got, sql, evf=store.edge_view_frame_pd())


def test_delta_pd_requires_t_ge_1(coll):
    with pytest.raises(ValueError):
        coll.delta_pd(0)


def test_optimized_order_no_worse_than_given(store):
    c_given = collection_from_gvdl(store, GVDL, order="given")
    c_opt = collection_from_gvdl(store, GVDL, order="optimize")
    assert sum(c_opt.diff_counts) <= sum(c_given.diff_counts)
    assert c_opt.hamming is not None


def test_explicit_order(store):
    c = collection_from_gvdl(store, GVDL, order=[3, 2, 1, 0])
    assert c.names == ["D30", "D15", "D10", "D5"]
    assert c.view_sizes == sorted(c.view_sizes, reverse=True)


def test_bad_explicit_order(store):
    with pytest.raises(ValueError):
        collection_from_gvdl(store, GVDL, order=[0, 0, 1, 2])


def test_cct_recorded(coll):
    assert set(coll.cct) >= {"ebm", "ordering", "diffstream", "total"}
    assert coll.cct["total"] > 0


def test_gvdl_type_check(store):
    with pytest.raises(TypeError):
        collection_from_gvdl(store, "create view v on g edges where duration > 1")


def test_programmatic_views(store):
    from pyspark.sql import functions as F

    views = [("short", F.col("duration") <= 5), ("ca", F.col("src_state") == "CA")]
    c = materialize_collection(store, "prog", views, order="given")
    assert c.k == 2 and c.names == ["short", "ca"]


def test_from_edge_sets_roundtrip(spark):
    nodes = pd.DataFrame({"vid": range(6)})
    v0 = pd.DataFrame({"src": [0, 1], "dst": [1, 2]})
    v1 = pd.DataFrame({"src": [0, 1, 3], "dst": [1, 2, 4]})
    v2 = pd.DataFrame({"src": [1, 3], "dst": [2, 4]})
    coll = from_edge_sets(spark, "c", [v0, v1, v2], nodes)
    for t, v in enumerate([v0, v1, v2]):
        got = set(zip(coll.view_edges_pd(t).src, coll.view_edges_pd(t).dst))
        assert got == set(zip(v.src, v.dst))


# ---------------------------------------------------------------------------
# Views and δ served from the collected difference stream.

#: Overlapping, non-nested views, so later views delete edges of earlier ones.
MIXED = {
    "short": ("duration <= 5", lambda f: f.duration <= 5),
    "y2019": ("year = 2019", lambda f: f.year == 2019),
    "ca": ("src.state = 'CA'", lambda f: f.src_state == "CA"),
    "long_old": ("duration > 10 and year <= 2019", lambda f: (f.duration > 10) & (f.year <= 2019)),
}


def _multiset(frame, cols):
    return sorted(tuple(r) for r in frame[cols].itertuples(index=False))


def _delta(prev: pd.DataFrame, cur: pd.DataFrame) -> list[tuple]:
    """Multiset difference cur − prev on (src, dst, weight), signed."""
    cols = ["src", "dst", "weight"]
    m = prev[cols].merge(cur[cols], on=cols, how="outer", indicator=True)
    diff = m[m["_merge"] != "both"]
    signed = diff.assign(sign=np.where(diff["_merge"] == "right_only", 1, -1))
    return _multiset(signed, cols + ["sign"])


def _check_against(coll, expected: dict[str, pd.DataFrame]) -> int:
    """view_edges_pd / delta_pd / view_sizes / diff_counts of ``coll`` equal
    the expected per-view edge sets; returns the number of deletions seen."""
    cols = ["src", "dst", "weight"]
    deletions = 0
    for t, name in enumerate(coll.names):
        want = expected[name]
        got = coll.view_edges_pd(t)
        assert list(got.columns) == cols
        assert _multiset(got, cols) == _multiset(want, cols), f"view {name}"
        assert coll.view_sizes[t] == len(want)
        if t == 0:
            assert coll.diff_counts[0] == len(want)
            continue
        d = coll.delta_pd(t)
        assert list(d.columns) == cols + ["sign"]
        want_d = _delta(expected[coll.names[t - 1]], want)
        assert _multiset(d, cols + ["sign"]) == want_d, f"delta into {name}"
        assert coll.diff_counts[t] == len(want_d)
        deletions += int((d.sign == -1).sum())
    return deletions


@pytest.fixture(scope="module")
def mixed_expected(store):
    evf = store.edge_view_frame_pd()
    evf["weight"] = evf["duration"].astype("float64")
    return {n: evf[mask(evf)] for n, (_, mask) in MIXED.items()}


@pytest.mark.parametrize("order", ["given", "optimize", [2, 0, 3, 1]])
def test_stream_serves_views_and_deltas(store, mixed_expected, order):
    views = [(n, to_spark_column(parse_predicate(p))) for n, (p, _) in MIXED.items()]
    c = materialize_collection(store, "mixed", views, order=order, weight_col="duration")
    assert _check_against(c, mixed_expected) > 0
    if order == "optimize":
        from repro.core.ordering import order_diff_count

        assert sum(c.diff_counts) == order_diff_count(c.hamming, c.order)


def test_stream_serves_from_edge_sets_with_weight_change(spark):
    nodes = pd.DataFrame({"vid": range(6)})
    v0 = pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 3], "weight": [2.0, 1.0, 1.0]})
    v1 = pd.DataFrame({"src": [0, 1, 3], "dst": [1, 2, 4], "weight": [1.0, 1.0, 1.0]})
    v2 = pd.DataFrame({"src": [0, 2, 3], "dst": [1, 3, 4], "weight": [1.0, 1.0, 5.0]})
    coll = from_edge_sets(spark, "w", [v0, v1, v2], nodes)
    expected = dict(zip(coll.names, [v0, v1, v2]))
    assert _check_against(coll, expected) > 0
    # (0, 1) changes weight 2 → 1: a −old/+new pair.
    d = coll.delta_pd(1)
    assert _multiset(d[(d.src == 0) & (d.dst == 1)], ["weight", "sign"]) == [
        (1.0, 1),
        (2.0, -1),
    ]


def test_view_index_out_of_range(coll):
    with pytest.raises(IndexError):
        coll.view_edges_pd(coll.k)
    with pytest.raises(IndexError):
        coll.delta_pd(coll.k)


def test_views_deltas_and_edge_sets_start_no_spark_job(spark, coll, spark_job_ids):
    """Reading views and δ, and building a collection from edge sets, run
    at the driver: no Spark job is submitted under their job group."""
    with spark_job_ids("no-spark-probe") as ids:
        for t in range(coll.k):
            coll.view_edges_pd(t)
            if t:
                coll.delta_pd(t)
        nodes = pd.DataFrame({"vid": range(4)})
        v0 = pd.DataFrame({"src": [0, 1], "dst": [1, 2]})
        v1 = pd.DataFrame({"src": [1, 2], "dst": [2, 3]})
        built = from_edge_sets(spark, "probe", [v0, v1], nodes)
        built.view_edges_pd(1)
        built.delta_pd(1)
    assert ids == []


@pytest.mark.parametrize("order", ["given", "optimize", [2, 0, 3, 1]])
def test_creation_is_one_spark_action(spark, store, monkeypatch, order):
    """Creation collects the EBM in one Spark action for every order (AQE
    may split that action into several jobs) and leaves nothing cached."""
    actions = []
    depth = [0]

    def counted(name, orig):
        def wrapper(self, *args, **kwargs):
            if depth[0] == 0:  # toPandas may call collect: count the outer
                actions.append(name)
            depth[0] += 1
            try:
                return orig(self, *args, **kwargs)
            finally:
                depth[0] -= 1

        return wrapper

    frame = type(spark.range(1))  # the session's concrete DataFrame class
    for name in ("toPandas", "collect", "count"):
        monkeypatch.setattr(frame, name, counted(name, getattr(frame, name)))
    persisted = spark.sparkContext._jsc.getPersistentRDDs().size()
    views = [(n, to_spark_column(parse_predicate(p))) for n, (p, _) in MIXED.items()]
    c = materialize_collection(store, "mixed", views, order=order, weight_col="duration")
    assert actions == ["toPandas"]
    assert spark.sparkContext._jsc.getPersistentRDDs().size() == persisted
    assert c.k == len(MIXED)
