"""Extension benchmarks: the Section 8 'ongoing work' directions, built
out and measured.

* top-n LOF mining with Theorem-1 bound pruning (faster LOF, take 1);
* incremental maintenance vs full recomputation (faster LOF, take 2);
* the LOF/OPTICS computation handshake (shared k-NN work);
* the cell-based DB-outlier algorithm vs the nested loop (the
  comparator's own fast path, from reference [13]).
"""

import time

import numpy as np
import pytest

from repro import IncrementalLOF, MaterializationDB, lof_scores
from repro.baselines import cell_based_db_outliers, db_outliers_nested_loop
from repro.core import lof_optics_handshake, top_n_lof
from repro.datasets import make_performance_dataset

from conftest import report, run_once


def test_topn_pruning(benchmark):
    X = make_performance_dataset(3000, dim=3, seed=0)
    result = run_once(benchmark, top_n_lof, X, 10, 15)
    full = lof_scores(X, 15)
    expected = np.lexsort((np.arange(len(full)), -full))[:10]
    np.testing.assert_array_equal(result.ids, expected)
    report(
        "Top-n LOF with Theorem-1 pruning (n=3000, top-10, MinPts=15)",
        [
            f"exact LOF evaluations: {result.exact_evaluations}",
            f"pruned by bounds:      {result.pruned} ({result.prune_fraction:.0%})",
        ],
    )
    assert result.prune_fraction > 0.5


def test_incremental_vs_batch(benchmark):
    """Per-insert cost of the incremental engine stays local: the number
    of recomputed objects is a small fraction of n."""
    rng = np.random.default_rng(1)
    X = rng.normal(size=(600, 2))

    def run():
        inc = IncrementalLOF.from_dataset(X, min_pts=8)
        touched = []
        for _ in range(20):
            inc.insert(rng.normal(size=2))
            touched.append(inc.last_report.changed_lof)
        return inc, float(np.mean(touched))

    inc, mean_touched = run_once(benchmark, run)
    # Correctness spot check: the maintained scores are the batch LOF of
    # the live points, bit for bit (rows in handle order).
    maintained = np.array([inc.scores[h] for h in inc.handles])
    batch = MaterializationDB.materialize(inc.points(), 8).lof(8)
    np.testing.assert_array_equal(maintained, batch)
    report(
        "Incremental LOF: work per insert (n=600, MinPts=8)",
        [f"mean objects recomputed per insert: {mean_touched:.1f} of {inc.n_points}"],
    )
    assert mean_touched < 0.25 * inc.n_points


def test_handshake_shares_knn_work(benchmark):
    rng = np.random.default_rng(2)
    X = np.vstack(
        [
            rng.normal(loc=(0, 0), scale=0.5, size=(150, 2)),
            rng.normal(loc=(8, 0), scale=1.2, size=(150, 2)),
            [[4.0, 3.0], [12.0, 5.0]],
        ]
    )
    result = run_once(benchmark, lof_optics_handshake, X, 8)
    np.testing.assert_allclose(result.lof, lof_scores(X, 8), rtol=1e-12)
    context = result.outliers_with_context(eps=1.5, lof_threshold=1.8)
    report(
        "LOF/OPTICS handshake (Section 8)",
        [
            f"k-NN queries issued: {result.knn_queries} "
            f"(one per object, serving both algorithms)",
            f"outliers with cluster context: "
            + ", ".join(
                f"obj {i} (LOF {info['lof']:.1f}, vs cluster {info['relative_to_cluster']})"
                for i, info in sorted(context.items())
            ),
        ],
    )
    assert result.knn_queries == len(X)
    assert 300 in context and 301 in context


def test_cell_based_vs_nested_loop(benchmark):
    """Knorr & Ng's cell algorithm: identical output, wholesale cell
    decisions replacing most distance computations."""
    X = make_performance_dataset(2000, dim=2, seed=3)
    pct, dmin = 99.0, 2.0

    def run():
        t0 = time.perf_counter()
        mask_cell, stats = cell_based_db_outliers(X, pct, dmin, return_stats=True)
        t_cell = time.perf_counter() - t0
        t0 = time.perf_counter()
        mask_nl = db_outliers_nested_loop(X, pct, dmin)
        t_nl = time.perf_counter() - t0
        return mask_cell, stats, t_cell, mask_nl, t_nl

    mask_cell, stats, t_cell, mask_nl, t_nl = run_once(benchmark, run)
    np.testing.assert_array_equal(mask_cell, mask_nl)
    report(
        "Cell-based DB-outliers (n=2000, d=2)",
        [
            f"cells: {stats.n_cells} (red {stats.red_cells}, "
            f"outlier {stats.outlier_cells}, white {stats.white_cells})",
            f"exact distance pairs: {stats.exact_distance_pairs} "
            f"of {len(X) * len(X)} possible",
            f"wall time: cell {t_cell * 1000:.0f} ms vs nested-loop {t_nl * 1000:.0f} ms",
        ],
    )
    assert stats.exact_distance_pairs < 0.5 * len(X) * len(X)
