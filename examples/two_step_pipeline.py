"""The Section 7.4 production pipeline, end to end with persistence.

Step 1 (expensive, index-accelerated) and step 2 (cheap, M-only) run as
separate phases with the materialization database persisted between
them — exactly the paper's architecture, where M is written once and
then scanned per MinPts value. Also demonstrates the top-n fast path.

Run:  python examples/two_step_pipeline.py
"""

import tempfile
import time
from pathlib import Path

import numpy as np

from repro import MaterializationDB, lof_range, rank_outliers
from repro.core import top_n_lof
from repro.datasets import make_performance_dataset


def main():
    X = make_performance_dataset(4000, dim=4, seed=0)
    workdir = Path(tempfile.mkdtemp(prefix="repro_"))
    mat_path = workdir / "flows.rlof"

    # ---- step 1: materialize once, with a tree index --------------------
    t0 = time.perf_counter()
    mat = MaterializationDB.materialize(X, min_pts_ub=50, index="kdtree")
    t_build = time.perf_counter() - t0
    mat.save(mat_path)
    print(f"step 1: materialized {mat.n_points} x {mat.min_pts_ub} "
          f"neighborhoods in {t_build:.1f}s -> {mat_path} "
          f"({mat_path.stat().st_size / 1e6:.1f} MB)")

    # ---- step 2: a different 'process' reloads M; raw data not needed ---
    del X, mat
    mat = MaterializationDB.load(mat_path)
    t0 = time.perf_counter()
    res = lof_range(min_pts_lb=10, min_pts_ub=50, materialization=mat)
    t_lof = time.perf_counter() - t0
    print(f"step 2: 41 MinPts values x {mat.n_points} objects "
          f"in {t_lof:.2f}s (no access to the original vectors)")

    ranking = rank_outliers(res.scores, top_n=5)
    print("\ntop-5 outliers by max-LOF over MinPts 10-50:")
    print(ranking.to_table())

    # ---- the top-n fast path over the same M -----------------------------
    t0 = time.perf_counter()
    topn = top_n_lof(materialization=mat, n_outliers=5, min_pts=50)
    t_topn = time.perf_counter() - t0
    print(f"\ntop-n fast path (MinPts=50): {topn.prune_fraction:.0%} of "
          f"objects pruned by Theorem-1 bounds in {t_topn * 1000:.0f} ms")
    single = rank_outliers(mat.lof(50), top_n=5)
    assert list(topn.ids) == [e.index for e in single]
    print("fast path agrees with the exhaustive ranking.")


if __name__ == "__main__":
    main()
