"""Step 1 of view-collection materialization: the Edge Boolean Matrix.

For each edge e and each view predicate p_j, the EBM records whether e
satisfies p_j (paper §3.2.1, Figure 5a). This is embarrassingly parallel:
one Spark pass over the edge-view frame evaluating all k predicates into a
``bits`` array column. :func:`collect_ebm` brings the rows of edges in at
least one view to the driver in that one pass; ordering and the difference
stream are computed from the collected bits.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

from repro.storage.store import GraphStore

#: Name of the boolean-vector column in EBM frames.
BITS = "bits"


def compute_ebm(
    store: GraphStore,
    predicates: list[Column],
    *,
    weight_col: str | None = None,
) -> DataFrame:
    """Evaluate all view ``predicates`` over the store's edge-view frame.

    Returns a frame ``(eid, src, dst, weight, bits: array<boolean>)`` where
    ``bits[j]`` is p_j(e). ``weight_col`` names an edge property to carry
    through as ``weight`` (defaults to the edge's ``weight`` property, or a
    constant 1.0 if the graph is unweighted).
    """
    frame = store.edge_view_frame()
    if weight_col is None and "weight" in store.edge_prop_names():
        weight_col = "weight"
    w = (
        F.col(weight_col).cast("double")
        if weight_col is not None
        else F.lit(1.0)
    )
    bits = F.array(*[p.cast("boolean") for p in predicates]).alias(BITS)
    return frame.select(
        F.col("eid"),
        F.col("src"),
        F.col("dst"),
        w.alias("weight"),
        bits,
    )


def collect_ebm(ebm: DataFrame, k: int) -> tuple[pd.DataFrame, np.ndarray]:
    """Collect the EBM rows of edges in at least one view, in one Spark
    action: the frame ``(eid, src, dst, weight)`` and its ``(n, k)`` bool
    matrix of bits. Edges in no view add nothing to any view, δ or Hamming
    distance, so they are dropped before the collect."""
    pdf = ebm.where(F.exists(BITS, lambda b: b)).toPandas()
    bits = np.zeros((len(pdf), k), dtype=bool)
    if len(pdf):
        bits[:] = np.vstack(pdf.pop(BITS).to_numpy()).astype(bool)
    return pdf[["eid", "src", "dst", "weight"]], bits
