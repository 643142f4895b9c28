"""Cross-path equivalence of the materialization builders, and the
forked-worker primitives of the serving fleet.

One database, three ways to build it — per-query loop (the one path
the estimator and the CLI use), batched front door, blocked fast path.
Equivalence is the contract (docs/performance.md): identical neighbor
ids and (distance, id) order everywhere; bit-identical distances between
the default build and the batched front door, which share the per-row
distance kernel; and the batched paths must cost O(n / block_size)
distance-kernel invocations, asserted on repro.obs counters (never the
clock).
"""

import numpy as np
import pytest

from repro import MaterializationDB, materialize, obs
from repro.core import fast_materialize
from repro.core.parallel import fork_available
from repro.exceptions import ValidationError

materialize_batched = MaterializationDB.materialize_batched

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


@pytest.fixture
def duplicate_heavy():
    """Clusters of exact duplicates (5 copies each) plus scatter, so
    k-distance ties and zero distances stress every selection path."""
    rng = np.random.default_rng(11)
    base = rng.normal(size=(12, 2))
    return np.vstack([np.repeat(base, 5, axis=0), rng.normal(size=(25, 2))])


def assert_same_db(a, b, exact=True):
    np.testing.assert_array_equal(a.padded_ids, b.padded_ids)
    if exact:
        np.testing.assert_array_equal(a.padded_dists, b.padded_dists)
    else:
        np.testing.assert_allclose(
            a.padded_dists, b.padded_dists, rtol=1e-9, atol=1e-7
        )


def dataset(request_name, tie_ring, duplicate_heavy, random_points):
    return {
        "tied": tie_ring,
        "duplicates": duplicate_heavy,
        "random": random_points,
    }[request_name]


@pytest.mark.parametrize("data_name", ["tied", "duplicates", "random"])
class TestCrossPathEquivalence:
    UB = 4

    def test_fast_matches_query_loop_at_every_block_size(
        self, data_name, tie_ring, duplicate_heavy, random_points
    ):
        X = dataset(data_name, tie_ring, duplicate_heavy, random_points)
        std = materialize(X, self.UB)
        for bs in (1, 7, len(X), len(X) + 13):
            fast = fast_materialize(X, self.UB, block_size=bs)
            # Same neighbor sets and order; distances to within ulps
            # (the blocked kernel uses the expanded BLAS form).
            assert_same_db(std, fast, exact=False)

    def test_batched_equals_loop(
        self, data_name, tie_ring, duplicate_heavy, random_points
    ):
        # Every block of the batched path runs the same box-pruned brute
        # scan, with the same per-row distance kernel, as the one-call
        # default build.
        X = dataset(data_name, tie_ring, duplicate_heavy, random_points)
        std = materialize(X, self.UB)
        for bs in (1, 7, len(X), len(X) + 13):
            batched = materialize_batched(X, self.UB, block_size=bs)
            assert_same_db(std, batched, exact=True)

    def test_batched_matches_loop_on_tree_backend(
        self, data_name, tie_ring, duplicate_heavy, random_points
    ):
        X = dataset(data_name, tie_ring, duplicate_heavy, random_points)
        std = materialize(X, self.UB, index="kdtree")
        batched = materialize_batched(X, self.UB, index="kdtree", block_size=7)
        assert_same_db(std, batched, exact=True)

    def test_lof_scores_agree_across_paths(
        self, data_name, tie_ring, duplicate_heavy, random_points
    ):
        X = dataset(data_name, tie_ring, duplicate_heavy, random_points)
        ref = materialize(X, self.UB).lof(self.UB)
        fast = fast_materialize(X, self.UB, block_size=9).lof(self.UB)
        batched = materialize_batched(X, self.UB, block_size=9).lof(self.UB)
        np.testing.assert_allclose(fast, ref, rtol=1e-9)
        np.testing.assert_allclose(batched, ref, rtol=1e-9)


class TestKernelCallCounters:
    def test_batched_brute_is_o_n_over_block(self, clustered_points):
        n = len(clustered_points)  # 1200
        block = 300  # -> 4 blocks
        with obs.collect() as loop:
            materialize(clustered_points, 5)
        with obs.collect() as batched:
            materialize_batched(clustered_points, 5, block_size=block)
        # The default build is one batch call over all n rows (1200
        # points in d=3 are enough for the pruned scan); the batched path
        # one per block. Each batch call makes a few kernel
        # calls over stacked pairs, far fewer than one per row.
        assert loop["counters"]["knn.batch_queries"] == 1
        assert batched["counters"]["knn.batch_queries"] == 4
        assert loop["counters"]["distance.kernel_calls"] * 100 <= n
        assert batched["counters"]["distance.kernel_calls"] * 25 <= n
        assert (
            loop["counters"]["knn.queries"]
            == batched["counters"]["knn.queries"]
            == n
        )
        # Which pairs a row evaluates depends on that row alone, so both
        # paths evaluate the same pairs, and the boxes skip most of the
        # n^2 on clustered d=3 data.
        assert (
            loop["counters"]["distance.evaluations"]
            == batched["counters"]["distance.evaluations"]
            < n * n
        )


class TestEdgeCases:
    def test_n2_ub1_every_block_size(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0]])
        std = materialize(X, 1)
        for bs in (1, 2, 5):
            fast = fast_materialize(X, 1, block_size=bs)
            assert_same_db(std, fast, exact=False)
            assert fast.padded_ids.tolist() == [[1], [0]]

    def test_ub_equals_n_minus_1_with_oversize_final_block(self):
        X = np.random.default_rng(5).normal(size=(7, 2))
        std = materialize(X, 6)
        for bs in (1, 3, 6, 7, 100):
            assert_same_db(std, fast_materialize(X, 6, block_size=bs), exact=False)
            assert_same_db(
                std, materialize_batched(X, 6, block_size=bs), exact=False
            )

    def test_ub_equals_n_minus_1_all_duplicates_but_one(self):
        # Zero distances at the partition boundary + the inf diagonal.
        X = np.array([[0.0], [0.0], [0.0], [1.0]])
        std = materialize(X, 3)
        for bs in (1, 2, 4, 9):
            assert_same_db(std, fast_materialize(X, 3, block_size=bs), exact=False)

    def test_block_size_validation_unchanged(self, random_points):
        with pytest.raises(ValidationError):
            fast_materialize(random_points, 5, block_size=0)
        with pytest.raises(ValidationError):
            materialize_batched(random_points, 5, block_size=0)


class TestLOFCache:
    def test_repeated_lof_costs_no_extra_scans(self, random_points):
        db = materialize(random_points, 8)
        with obs.collect() as snap:
            first = db.lof(5)
            second = db.lof(5)
        assert first is second
        # One lrd pass + one lof pass, counted once despite two calls.
        assert snap["counters"]["mscan.passes"] == 2

    def test_lof_range_revisit_is_free(self, random_points):
        db = materialize(random_points, 8)
        with obs.collect() as snap:
            db.lof_range(4, 6)
            db.lof_range(4, 6)
        assert snap["counters"]["mscan.passes"] == 6

    def test_distinct_ks_cached_independently(self, random_points):
        db = materialize(random_points, 8)
        a = db.lof(4)
        b = db.lof(5)
        assert a is db.lof(4)
        assert b is db.lof(5)
        assert not np.array_equal(a, b)


class TestForkWorkers:
    """The raw-fork primitives under the serving fleet
    (`repro.serve.run_fleet`): exit-code aggregation across long-lived
    forked workers."""

    @needs_fork
    def test_clean_workers_exit_zero(self):
        from repro.core.parallel import fork_workers, wait_workers

        pids = fork_workers(3, lambda index: 0)
        assert len(pids) == len(set(pids)) == 3
        assert wait_workers(pids) == 0

    @needs_fork
    def test_worst_exit_code_wins(self):
        from repro.core.parallel import fork_workers, wait_workers

        pids = fork_workers(3, lambda index: index)  # exits 0, 1, 2
        assert wait_workers(pids) == 2

    @needs_fork
    def test_crashed_worker_exits_nonzero(self):
        from repro.core.parallel import fork_workers, wait_workers

        def boom(index):
            raise RuntimeError("worker crash")

        assert wait_workers(fork_workers(1, boom)) == 1

    @needs_fork
    def test_signal_killed_worker_counts_shell_style(self):
        import os
        import signal
        import time

        from repro.core.parallel import fork_workers, wait_workers

        pids = fork_workers(1, lambda index: time.sleep(60) or 0)
        os.kill(pids[0], signal.SIGTERM)
        assert wait_workers(pids) == 128 + signal.SIGTERM
