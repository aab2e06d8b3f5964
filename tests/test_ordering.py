"""Collection ordering tests (paper §4, Algorithm 1)."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.ebm import compute_ebm
from repro.core.ordering import hamming_matrix, optimize_order, order_diff_count
from repro.datasets import call_graph, community_graph
from repro.experiments.table4 import removal_views
from repro.gvdl import parse_predicate, to_spark_column
from repro.storage.store import GraphStore


def _bits_matrix(ebm):
    pdf = ebm.select("bits").toPandas()
    return np.vstack(pdf.bits.to_numpy()).astype("int64")


@pytest.fixture(scope="module")
def inclusion_ebm(spark):
    """Duration-threshold chain — Listing 3's inclusion structure."""
    nodes, edges = call_graph()
    store = GraphStore(spark, nodes, edges, name="Calls")
    preds = [f"duration <= {d}" for d in (30, 5, 15, 10)]  # shuffled chain
    cols = [to_spark_column(parse_predicate(p)) for p in preds]
    return compute_ebm(store, cols).cache()


def test_hamming_matrix_vs_numpy(inclusion_ebm):
    k = 4
    d = hamming_matrix(inclusion_ebm, k)
    bits = _bits_matrix(inclusion_ebm)
    padded = np.concatenate([np.zeros((len(bits), 1), dtype="int64"), bits], axis=1)
    ref = np.array(
        [[np.sum(padded[:, i] != padded[:, j]) for j in range(k + 1)] for i in range(k + 1)]
    )
    assert np.array_equal(d, ref)


def test_hamming_matrix_symmetric_zero_diag(inclusion_ebm):
    d = hamming_matrix(inclusion_ebm, 4)
    assert np.array_equal(d, d.T)
    assert np.all(np.diag(d) == 0)


def test_optimizer_recovers_inclusion_chain(inclusion_ebm):
    """For views with inclusion structure D5 ⊂ D10 ⊂ D15 ⊂ D30 the optimal
    order is the monotone chain (paper §4's Listing-3 example)."""
    order, d = optimize_order(inclusion_ebm, 4)
    # given predicate order was (30, 5, 15, 10) → chain is [1, 3, 2, 0]
    assert order in ([1, 3, 2, 0], [0, 2, 3, 1])


def test_optimizer_order_is_permutation(spark):
    nodes, edges = community_graph(200, 800, 6, seed=0)
    store = GraphStore(spark, nodes, edges, name="cg")
    views = removal_views(5, 2)  # 10 views
    ebm = compute_ebm(store, [c for _, c in views]).cache()
    order, d = optimize_order(ebm, len(views))
    assert sorted(order) == list(range(len(views)))


def test_optimizer_beats_random_orders(spark):
    """The optimizer's total diff count beats the average random order."""
    nodes, edges = community_graph(300, 1500, 7, seed=1)
    store = GraphStore(spark, nodes, edges, name="cg")
    views = removal_views(6, 3)  # 20 views
    ebm = compute_ebm(store, [c for _, c in views]).cache()
    order, d = optimize_order(ebm, len(views))
    opt = order_diff_count(d, order)
    g = np.random.default_rng(0)
    rand = [
        order_diff_count(d, g.permutation(len(views)).tolist()) for _ in range(5)
    ]
    assert opt < np.mean(rand)


def test_order_diff_count_matches_diffstream(spark):
    """order_diff_count (from the Hamming matrix) must equal the actual
    materialized difference-stream size."""
    from repro.core.diffstream import collect_stream, diff_counts

    nodes, edges = call_graph()
    store = GraphStore(spark, nodes, edges, name="Calls")
    preds = ["duration <= 10", "year = 2019", "src.state = 'CA'"]
    cols = [to_spark_column(parse_predicate(p)) for p in preds]
    ebm = compute_ebm(store, cols).cache()
    order, d = optimize_order(ebm, 3)
    assert order_diff_count(d, order) == sum(diff_counts(collect_stream(ebm, order), 3))


def test_path_direction_choice(inclusion_ebm):
    """The returned path must not be worse than its own reversal."""
    order, d = optimize_order(inclusion_ebm, 4)
    assert order_diff_count(d, order) <= order_diff_count(d, order[::-1])
