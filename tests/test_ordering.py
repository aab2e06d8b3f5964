"""Collection ordering tests (paper §4, Algorithm 1)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.diffstream import diff_counts, flips, sort_stream, view_sizes
from repro.core.ebm import collect_ebm, compute_ebm
from repro.core.ordering import hamming_matrix, optimize_order, order_diff_count
from repro.datasets import call_graph, community_graph
from repro.experiments.table4 import removal_views
from repro.gvdl import parse_predicate, to_spark_column
from repro.storage.store import GraphStore


@pytest.fixture(scope="module")
def inclusion_bits(spark):
    """Duration-threshold chain — Listing 3's inclusion structure, as the
    collected EBM bits."""
    nodes, edges = call_graph()
    store = GraphStore(spark, nodes, edges, name="Calls")
    preds = [f"duration <= {d}" for d in (30, 5, 15, 10)]  # shuffled chain
    cols = [to_spark_column(parse_predicate(p)) for p in preds]
    return collect_ebm(compute_ebm(store, cols), len(cols))[1]


def test_hamming_matrix_vs_numpy(inclusion_bits):
    k = 4
    d = hamming_matrix(inclusion_bits)
    bits = inclusion_bits.astype("int64")
    padded = np.concatenate([np.zeros((len(bits), 1), dtype="int64"), bits], axis=1)
    ref = np.array(
        [[np.sum(padded[:, i] != padded[:, j]) for j in range(k + 1)] for i in range(k + 1)]
    )
    assert np.array_equal(d, ref)


def test_hamming_matrix_symmetric_zero_diag(inclusion_bits):
    d = hamming_matrix(inclusion_bits)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0)


def test_optimizer_recovers_inclusion_chain(inclusion_bits):
    """For views with inclusion structure D5 ⊂ D10 ⊂ D15 ⊂ D30 the optimal
    order is the monotone chain (paper §4's Listing-3 example)."""
    order, d = optimize_order(inclusion_bits)
    # given predicate order was (30, 5, 15, 10) → chain is [1, 3, 2, 0]
    assert order in ([1, 3, 2, 0], [0, 2, 3, 1])


def test_optimizer_order_is_permutation(spark):
    nodes, edges = community_graph(200, 800, 6, seed=0)
    store = GraphStore(spark, nodes, edges, name="cg")
    views = removal_views(5, 2)  # 10 views
    _, bits = collect_ebm(compute_ebm(store, [c for _, c in views]), len(views))
    order, d = optimize_order(bits)
    assert sorted(order) == list(range(len(views)))


def test_optimizer_beats_random_orders(spark):
    """The optimizer's total diff count beats the average random order."""
    nodes, edges = community_graph(300, 1500, 7, seed=1)
    store = GraphStore(spark, nodes, edges, name="cg")
    views = removal_views(6, 3)  # 20 views
    _, bits = collect_ebm(compute_ebm(store, [c for _, c in views]), len(views))
    order, d = optimize_order(bits)
    opt = order_diff_count(d, order)
    g = np.random.default_rng(0)
    rand = [
        order_diff_count(d, g.permutation(len(views)).tolist()) for _ in range(5)
    ]
    assert opt < np.mean(rand)


def test_order_diff_count_matches_diffstream(spark):
    """order_diff_count (from the Hamming matrix) must equal the actual
    materialized difference-stream size."""
    nodes, edges = call_graph()
    store = GraphStore(spark, nodes, edges, name="Calls")
    preds = ["duration <= 10", "year = 2019", "src.state = 'CA'"]
    cols = [to_spark_column(parse_predicate(p)) for p in preds]
    edges, bits = collect_ebm(compute_ebm(store, cols), 3)
    order, d = optimize_order(bits)
    stream = sort_stream(flips(edges, bits, order))
    assert order_diff_count(d, order) == sum(diff_counts(stream, 3))


def test_path_direction_choice(inclusion_bits):
    """The returned path must not be worse than its own reversal."""
    order, d = optimize_order(inclusion_bits)
    assert order_diff_count(d, order) <= order_diff_count(d, order[::-1])


def test_hamming_matrix_with_edge_in_no_view(spark):
    """Collecting drops edges in no view; the driver Hamming matrix still
    equals the brute-force one over every edge, and its zero row holds the
    view sizes."""
    full = np.array(
        [
            [True, False, True],
            [False, False, False],  # in no view
            [True, True, False],
            [False, True, True],
            [False, False, True],
        ]
    )
    pdf = pd.DataFrame(
        {
            "eid": range(len(full)),
            "src": range(len(full)),
            "dst": [1, 2, 3, 4, 0],
            "weight": 1.0,
            "bits": list(full),
        }
    )
    ebm = spark.createDataFrame(
        pdf, schema="eid long, src long, dst long, weight double, bits array<boolean>"
    )
    edges, bits = collect_ebm(ebm, 3)
    assert sorted(edges.eid) == [0, 2, 3, 4]
    d = hamming_matrix(bits)
    padded = np.concatenate([np.zeros((len(full), 1), dtype="int64"), full], axis=1)
    ref = np.array(
        [[np.sum(padded[:, i] != padded[:, j]) for j in range(4)] for i in range(4)]
    )
    assert np.array_equal(d, ref)
    sizes = view_sizes(sort_stream(flips(edges, bits, [0, 1, 2])), 3)
    assert list(d[0, 1:]) == sizes
