"""Edge difference stream tests (paper §3.2.1 step 3, Figure 5)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.collection import from_edge_sets
from repro.core.diffstream import diff_counts, flips, sort_stream, view_sizes
from repro.core.ebm import BITS, collect_ebm, compute_ebm
from repro.datasets import call_graph
from repro.gvdl import parse_predicate, to_spark_column
from repro.storage.store import GraphStore


@pytest.fixture(scope="module")
def figure5_ebm(spark):
    """The paper's Figure-5a matrix, loaded verbatim into Spark and
    collected back as ``(edges, bits)``."""
    rows = [
        (0, 0, 1, 1.0, [True, False, False]),
        (1, 1, 2, 1.0, [True, False, True]),
        (2, 2, 3, 1.0, [False, False, True]),
        (3, 3, 4, 1.0, [False, True, True]),
        (4, 4, 0, 1.0, [True, False, True]),
    ]
    pdf = pd.DataFrame(rows, columns=["eid", "src", "dst", "weight", BITS])
    ebm = spark.createDataFrame(
        pdf, schema="eid long, src long, dst long, weight double, bits array<boolean>"
    )
    return collect_ebm(ebm, 3)


def _stream(ebm, order):
    edges, bits = ebm
    return sort_stream(flips(edges, bits, order))


def test_figure5_difference_stream(figure5_ebm):
    """Reproduce Figure 5b exactly."""
    ds = flips(*figure5_ebm, [0, 1, 2])
    got = {(int(r.eid), int(r.t)): int(r.sign) for r in ds.itertuples()}
    expected = {
        (0, 0): 1, (0, 1): -1,
        (1, 0): 1, (1, 1): -1, (1, 2): 1,
        (2, 2): 1,
        (3, 1): 1,
        (4, 0): 1, (4, 1): -1, (4, 2): 1,
    }
    assert got == expected


def test_figure5_diff_counts(figure5_ebm):
    assert diff_counts(_stream(figure5_ebm, [0, 1, 2]), 3) == [3, 4, 3]


def test_figure5_view_sizes(figure5_ebm):
    assert view_sizes(_stream(figure5_ebm, [0, 1, 2]), 3) == [3, 1, 4]


def test_diff_counts_under_reorder(figure5_ebm):
    # ordering [2, 0, 1]: first view = column 2
    stream = _stream(figure5_ebm, [2, 0, 1])
    assert view_sizes(stream, 3) == [4, 3, 1]
    counts = diff_counts(stream, 3)
    assert counts[0] == 4


def test_prefix_sum_reconstructs_views(spark):
    """Σ_{s≤t} δC_s must equal GV_t for every t (DD's invariant)."""
    nodes, edges = call_graph()
    store = GraphStore(spark, nodes, edges, name="Calls")
    preds = ["duration <= 5", "duration <= 12", "year = 2019", "src.state = 'CA'"]
    ebm = compute_ebm(
        store, [to_spark_column(parse_predicate(p)) for p in preds]
    ).cache()
    order = [2, 0, 3, 1]
    ds = _stream(collect_ebm(ebm, len(preds)), order)
    bits = ebm.select("eid", BITS).toPandas().set_index("eid")
    for t in range(4):
        acc = ds[ds.t <= t].groupby("eid")["sign"].sum()
        members = set(acc[acc == 1].index)
        expected = {
            int(e) for e, b in bits[BITS].items() if b[order[t]]
        }
        assert members == expected, f"mismatch at t={t}"


def test_signs_are_plus_minus_one(figure5_ebm):
    ds = flips(*figure5_ebm, [1, 2, 0])
    assert set(ds.sign) <= {-1, 1}


def test_from_edge_sets_weight_change_is_diff(spark):
    """An edge whose weight changes between views must appear as −old/+new."""
    nodes = pd.DataFrame({"vid": [0, 1]})
    v0 = pd.DataFrame({"src": [0], "dst": [1], "weight": [2.0]})
    v1 = pd.DataFrame({"src": [0], "dst": [1], "weight": [1.0]})
    coll = from_edge_sets(spark, "w", [v0, v1], nodes)
    assert coll.diff_counts == [1, 2]
    d = coll.delta_pd(1).sort_values("sign")
    assert list(d.sign) == [-1, 1]
    assert list(d.weight) == [2.0, 1.0]


def test_from_edge_sets_sizes_and_deltas(spark):
    nodes = pd.DataFrame({"vid": range(5)})
    v0 = pd.DataFrame({"src": [0, 1, 2], "dst": [1, 2, 3]})
    v1 = pd.DataFrame({"src": [1, 2, 3], "dst": [2, 3, 4]})
    coll = from_edge_sets(spark, "c", [v0, v1], nodes)
    assert coll.view_sizes == [3, 3]
    assert coll.diff_counts == [3, 2]  # remove (0,1), add (3,4)
    d = coll.delta_pd(1)
    assert {(int(r.src), int(r.dst), int(r.sign)) for r in d.itertuples()} == {
        (0, 1, -1),
        (3, 4, 1),
    }
