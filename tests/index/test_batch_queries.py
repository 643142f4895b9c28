"""The batched k-NN front door: query_batch_with_ties.

Contract under test (docs/performance.md): every backend answers a
batch exactly like the corresponding per-query calls — same ids, same
deterministic (distance, id) order, Definition 4 tie inclusion — with
rows padded to the widest neighborhood (-1 / inf). The brute backend
answers with its box-pruned scan: bit-identical distances, a few
distance-kernel invocations per batch, and exactly counted evaluations.
"""

import numpy as np
import pytest

from repro import obs
from repro.exceptions import NotFittedError, ValidationError
from repro.index import make_index
from repro.index.base import KBestHeap
from repro.index.metrics import EuclideanMetric
from repro.index.batch import pack_padded, select_tie_inclusive

BACKENDS = ["brute", "grid", "kdtree", "balltree", "rstar", "xtree", "vafile"]


@pytest.fixture
def tied_points():
    """tie_ring plus a far point, so k-distances tie across rows too."""
    return np.array(
        [
            [0.0, 0.0],
            [1.0, 0.0],
            [0.0, 2.0],
            [0.0, -2.0],
            [3.0, 0.0],
            [-3.0, 0.0],
            [0.0, 3.0],
            [10.0, 10.0],
        ]
    )


@pytest.mark.parametrize("backend", BACKENDS)
class TestBatchMatchesPerQuery:
    def test_with_ties_self_excluded(self, backend, tied_points):
        idx = make_index(backend).fit(tied_points)
        n = len(tied_points)
        ids, dists = idx.query_batch_with_ties(
            tied_points, 3, exclude=np.arange(n)
        )
        assert ids.shape == dists.shape and ids.shape[0] == n
        for i in range(n):
            hood = idx.query_with_ties(tied_points[i], 3, exclude=i)
            L = len(hood)
            np.testing.assert_array_equal(ids[i, :L], hood.ids)
            if backend == "brute":
                # The pruned batch scan shares the per-row kernel.
                np.testing.assert_array_equal(dists[i, :L], hood.distances)
            else:
                np.testing.assert_allclose(
                    dists[i, :L], hood.distances, rtol=1e-9, atol=1e-7
                )
            assert np.all(ids[i, L:] == -1)
            assert np.all(np.isinf(dists[i, L:]))

    def test_exact_k_no_exclusion(self, backend, random_points):
        # Rows are (distance, id)-sorted, so the first k entries of a
        # tie-inclusive row are the plain k-NN answer.
        idx = make_index(backend).fit(random_points)
        Q = random_points[:9]
        ids, dists = idx.query_batch_with_ties(Q, 5)
        assert ids.shape[0] == 9 and ids.shape[1] >= 5
        for i in range(9):
            hood = idx.query(Q[i], 5)
            np.testing.assert_array_equal(ids[i, :5], hood.ids)
            if backend == "brute":
                np.testing.assert_array_equal(dists[i, :5], hood.distances)
            else:
                np.testing.assert_allclose(
                    dists[i, :5], hood.distances, rtol=1e-9, atol=1e-7
                )

    def test_partial_exclusion_vector(self, backend, random_points):
        # -1 entries mean "no exclusion for this row".
        idx = make_index(backend).fit(random_points)
        exclude = np.array([0, -1, 2])
        ids, _ = idx.query_batch_with_ties(random_points[:3], 4, exclude=exclude)
        assert 0 not in ids[0]
        assert 1 in ids[1]  # its own id stays when not excluded
        assert 2 not in ids[2]


class CountingEuclidean(EuclideanMetric):
    """Counts the distances its row kernel actually computes."""

    computed = 0

    def _row_norms(self, diff):
        self.computed += len(diff)
        return super()._row_norms(diff)

    def gap_norms(self, gaps):
        # Box bounds run the same kernel but are not distances.
        return super()._row_norms(gaps)


class TestBruteVectorizedPath:
    def test_one_kernel_call_per_batch(self, clustered_points):
        # One batch crossing for the whole batch; the box-pruned scan
        # makes a few kernel calls (first node, nearest leaves, the
        # rest), each over many stacked pairs.
        metric = CountingEuclidean()
        idx = make_index("brute", metric=metric).fit(clustered_points)
        n = len(clustered_points)
        with obs.collect() as snap:
            idx.query_batch_with_ties(clustered_points, 5, exclude=np.arange(n))
        counters = snap["counters"]
        assert counters["knn.batch_queries"] == 1
        assert counters["knn.queries"] == n
        assert counters["distance.kernel_calls"] * 100 <= n
        # Evaluations are counted exactly, and the boxes skip most of
        # the n^2 pairs on clustered low-dimensional data.
        assert counters["distance.evaluations"] == metric.computed
        assert counters["distance.evaluations"] == idx.stats.distance_evaluations
        assert counters["distance.evaluations"] < n * n

    def test_per_index_stats_count_batch_rows(self, random_points):
        idx = make_index("brute").fit(random_points)
        idx.query_batch_with_ties(random_points[:7], 3)
        assert idx.stats.queries == 7
        assert idx.stats.distance_evaluations == 7 * len(random_points)

    def test_fallback_backends_count_batch_crossings(self, random_points):
        idx = make_index("kdtree").fit(random_points)
        with obs.collect() as snap:
            idx.query_batch_with_ties(random_points[:7], 3)
        assert snap["counters"]["knn.batch_queries"] == 1
        assert snap["counters"]["knn.queries"] == 7


class TestValidation:
    def test_requires_fit(self):
        with pytest.raises(NotFittedError):
            make_index("brute").query_batch_with_ties(np.zeros((2, 2)), 1)

    def test_rejects_wrong_width(self, random_points):
        idx = make_index("brute").fit(random_points)
        with pytest.raises(ValidationError):
            idx.query_batch_with_ties(np.zeros((2, 5)), 1)

    def test_rejects_nonfinite_queries(self, random_points):
        idx = make_index("brute").fit(random_points)
        Q = random_points[:2].copy()
        Q[0, 0] = np.nan
        with pytest.raises(ValidationError):
            idx.query_batch_with_ties(Q, 1)

    def test_rejects_misaligned_exclude(self, random_points):
        idx = make_index("brute").fit(random_points)
        with pytest.raises(ValidationError):
            idx.query_batch_with_ties(random_points[:3], 1, exclude=np.array([0, 1]))

    def test_rejects_out_of_range_exclude(self, random_points):
        idx = make_index("brute").fit(random_points)
        with pytest.raises(ValidationError):
            idx.query_batch_with_ties(
                random_points[:1], 1, exclude=np.array([len(random_points)])
            )

    def test_k_bound_accounts_for_exclusion(self, random_points):
        idx = make_index("brute").fit(random_points)
        n = len(random_points)
        # k == n is fine without exclusions, one too many with them.
        ids, _ = idx.query_batch_with_ties(random_points[:2], n)
        assert ids.shape == (2, n)
        with pytest.raises(ValidationError):
            idx.query_batch_with_ties(random_points[:2], n, exclude=np.array([0, 1]))


class TestSelectionKernels:
    def test_select_tie_inclusive_rows_sorted_and_tie_complete(self):
        D = np.array(
            [
                [np.inf, 2.0, 1.0, 2.0],  # k=2 distance ties -> 3 results
                [5.0, np.inf, 4.0, 3.0],
            ]
        )
        flat_ids, flat_dists, counts = select_tie_inclusive(D, 2)
        np.testing.assert_array_equal(counts, [3, 2])
        np.testing.assert_array_equal(flat_ids, [2, 1, 3, 3, 2])
        np.testing.assert_array_equal(flat_dists, [1.0, 2.0, 2.0, 3.0, 4.0])

    def test_pack_padded_layout(self):
        ids, dists = pack_padded(
            np.array([7, 8, 9]), np.array([1.0, 2.0, 3.0]), np.array([1, 2])
        )
        np.testing.assert_array_equal(ids, [[7, -1], [8, 9]])
        assert np.isinf(dists[0, 1])


class TestConsiderManyPrefilter:
    def test_equal_distance_smaller_id_still_replaces(self):
        # The vectorized pre-filter must be <=, not <: a candidate tied
        # with the current worst but carrying a smaller id wins under
        # the (distance, id) order.
        heap = KBestHeap(2)
        heap.consider_many([1.0, 2.0], [5, 7])
        heap.consider_many(np.array([2.0]), np.array([3]))
        ids, dists = heap.result()
        assert set(ids) == {5, 3}

    def test_hopeless_candidates_filtered(self):
        heap = KBestHeap(2)
        heap.consider_many([1.0, 2.0, 9.0, 8.5, 7.0], [1, 2, 3, 4, 5])
        ids, dists = heap.result()
        assert set(ids) == {1, 2}
        assert heap.worst_distance == 2.0

    def test_fills_then_filters(self):
        heap = KBestHeap(3)
        heap.consider_many([5.0, 4.0, 3.0, 2.0, 1.0, 9.0], [0, 1, 2, 3, 4, 5])
        ids, dists = heap.result()
        assert set(ids) == {2, 3, 4}
