"""Step 2: collection ordering (paper §4, Algorithm 1).

Given the EBM's bits collected at the driver, pad a zero column, compute
pairwise Hamming distances between the (k+1) columns — summing, over fixed
blocks of rows, the partial matrix ``Cᵀ(U−C) + (U−C)ᵀC`` exactly as
Algorithm 1's workers do — and run Christofides on the resulting clique.
The tour is rotated so the padded zero column comes first; dropping it
yields the view ordering, which is a 1.5-approximation to CBMP and hence a
3-approximation to COP (Theorem 4.1 and the discussion following it).
"""
from __future__ import annotations

import numpy as np

from repro.core.tsp import christofides, two_opt


def hamming_matrix(bits: np.ndarray) -> np.ndarray:
    """(k+1)×(k+1) Hamming distance matrix of the zero-padded columns of
    the ``(n, k)`` bool matrix ``bits``.

    Row/column 0 is the padded all-zero column; column j+1 is view j. Rows
    are taken in blocks, so memory beyond ``bits`` stays O(block·k).
    """
    n, k = bits.shape
    kk = k + 1
    block = 1 << 14
    acc = np.zeros((kk, kk), dtype="int64")
    for lo in range(0, n, block):
        part = bits[lo : lo + block]
        c = np.zeros((len(part), kk), dtype="float64")
        c[:, 1:] = part
        # Algorithm 1: D_i = C_iᵀ(U − C_i) + (U − C_i)ᵀ C_i
        nc = 1.0 - c
        acc += (c.T @ nc + nc.T @ c).astype("int64")
    return acc


def optimize_order(bits: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Collection-ordering optimizer over the ``(n, k)`` EBM bits: returns
    ``(order, hamming_matrix)``.

    ``order`` is a permutation of view indices 0..k-1 minimizing (approx.)
    the total number of edge differences, first view nearest the empty set.
    """
    d = hamming_matrix(bits)
    tour = two_opt(d.astype("float64"), christofides(d.astype("float64")))
    zi = tour.index(0)
    rotated = tour[zi:] + tour[:zi]  # zero column first
    order = [v - 1 for v in rotated[1:]]
    # The tour is a cycle; traversing it in either direction is valid.
    # Pick the direction whose *path* (dropping the closing edge back to
    # the zero column) has the smaller total difference count.
    fwd = order
    bwd = order[::-1]
    return (fwd if order_diff_count(d, fwd) <= order_diff_count(d, bwd) else bwd), d


def order_diff_count(d: np.ndarray, order: list[int]) -> int:
    """Total number of edge differences Σ_t |δC_t| implied by ``order``
    (including δC_0 = the first view itself), from the Hamming matrix."""
    cols = [0] + [v + 1 for v in order]
    return int(sum(d[cols[i], cols[i + 1]] for i in range(len(order))))
