"""Benchmark: Table 3 — diff vs scratch vs adaptive on the three citation
view collections (paper §7.3), one benchmark per collection.
"""
import json
import os

import pytest

from repro.experiments.common import render_rows, results_dir
from repro.experiments.table3 import run_table3

COLS = ["collection", "algo", "diff_s", "scratch_s", "adaptive_s",
        "adaptive_vs_best", "adaptive_modes"]


@pytest.mark.parametrize("collection", ["C_sl", "C_ex_sh_sl", "C_aut"])
def test_table3_collection(benchmark, spark, collection):
    rows = benchmark.pedantic(
        lambda: run_table3(
            spark, n_papers=5_000, pr_iters=10, ell=4, collections=(collection,)
        ),
        rounds=1,
        iterations=1,
    )
    print(f"\nTable 3 [{collection}] — runtimes (s)")
    print(render_rows(rows, COLS))
    # merge all collections' rows into one results file
    out = results_dir()
    path = os.path.join(out, "table3.json")
    merged = []
    if os.path.exists(path):
        merged = [r for r in json.load(open(path)) if r["collection"] != collection]
    os.makedirs(out, exist_ok=True)
    json.dump(merged + rows, open(path, "w"), indent=2)
    # adaptive must be within a modest factor of the better baseline
    for r in rows:
        assert r["adaptive_vs_best"] is None or r["adaptive_vs_best"] < 2.0
