"""Step 3: the edge difference stream (paper §3.2.1, Figure 5b).

Treat the ordered view collection as an evolving input: δC_t contains edge
e with multiplicity +1 if e enters at view t, −1 if it leaves, 0 otherwise
(with δC_0 = the first view itself, i.e. every edge of GV_0 enters at t=0).
Per-edge contributions are independent, so :func:`flips` computes them from
the EBM bits collected at the driver in one vectorized step, and
:func:`sort_stream` sorts them by t. Everything else about the collection —
|δC_t|, |GV_t|, each δC_t and each view's edge set — follows from the
stream at the driver.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

DIFF_DTYPES = {
    "t": "int32",
    "eid": "int64",
    "src": "int64",
    "dst": "int64",
    "weight": "float64",
    "sign": "int32",
}


def flips(edges: pd.DataFrame, bits: np.ndarray, order) -> pd.DataFrame:
    """Difference rows ``(t, eid, src, dst, weight, sign)`` of ``edges``
    (columns eid, src, dst, weight), whose membership in view j is
    ``bits[:, j]``, for the views taken in ``order``."""
    member = bits[:, np.asarray(order, dtype="int64")].astype("int8")
    prev = np.concatenate(
        [np.zeros((len(member), 1), dtype="int8"), member[:, :-1]], axis=1
    )
    delta = member - prev  # ∈ {-1, 0, +1}
    rows, ts = np.nonzero(delta)
    return pd.DataFrame(
        {
            "t": ts.astype("int32"),
            "eid": edges["eid"].to_numpy()[rows],
            "src": edges["src"].to_numpy()[rows],
            "dst": edges["dst"].to_numpy()[rows],
            "weight": edges["weight"].to_numpy()[rows],
            "sign": delta[rows, ts].astype("int32"),
        }
    )


def sort_stream(stream: pd.DataFrame) -> pd.DataFrame:
    """The stream with fixed dtypes, sorted by ``(t, eid)``."""
    stream = stream.astype(DIFF_DTYPES)
    rank = np.lexsort((stream["eid"].to_numpy(), stream["t"].to_numpy()))
    return stream.iloc[rank].reset_index(drop=True)


def diff_counts(stream: pd.DataFrame, k: int) -> list[int]:
    """|δC_t| for every t (number of ±1 entries per view transition)."""
    return np.bincount(stream["t"].to_numpy(), minlength=k).tolist()


def view_sizes(stream: pd.DataFrame, k: int) -> list[int]:
    """|GV_t| (edge count of each view) in collection order: the running
    sum of the stream's signs."""
    signed = np.bincount(
        stream["t"].to_numpy(), weights=stream["sign"].to_numpy(), minlength=k
    )
    return np.cumsum(signed).astype("int64").tolist()
