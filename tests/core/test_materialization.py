"""The Section 7.4 two-step algorithm (MaterializationDB)."""

import math

import numpy as np
import pytest

from repro import MaterializationDB, lof_scores, materialize, obs
from repro.exceptions import ValidationError
from repro.index import available_indexes, make_index


class TestConstruction:
    def test_size_in_records(self, random_points):
        mat = materialize(random_points, min_pts_ub=10)
        # Gaussian data has no ties: exactly n * MinPtsUB records.
        assert mat.size_in_records() == len(random_points) * 10

    def test_tie_rows_can_exceed_ub(self, tie_ring):
        mat = materialize(tie_ring, min_pts_ub=4)
        ids, dists = mat.neighborhood_of(0, 4)
        assert len(ids) == 6  # Definition 4's example

    def test_prefitted_index_accepted(self, random_points):
        idx = make_index("kdtree").fit(random_points)
        mat = materialize(random_points, min_pts_ub=5, index=idx)
        np.testing.assert_allclose(mat.lof(5), lof_scores(random_points, 5))

    def test_prefitted_index_size_mismatch_rejected(self, random_points):
        idx = make_index("brute").fit(random_points[:50])
        with pytest.raises(ValidationError):
            materialize(random_points, min_pts_ub=5, index=idx)

    def test_bad_duplicate_mode(self, random_points):
        with pytest.raises(ValidationError):
            materialize(random_points, min_pts_ub=5, duplicate_mode="bogus")


class TestKQueries:
    def test_k_distances_match_direct(self, random_points):
        from repro import k_distance

        mat = materialize(random_points, min_pts_ub=12)
        for k in (1, 5, 12):
            np.testing.assert_allclose(
                mat.k_distances(k), k_distance(random_points, k=k), rtol=1e-12
            )

    def test_k_beyond_ub_rejected(self, random_points):
        mat = materialize(random_points, min_pts_ub=5)
        with pytest.raises(ValidationError):
            mat.lof(6)

    def test_neighborhoods_are_prefixes(self, random_points):
        mat = materialize(random_points, min_pts_ub=10)
        for i in (0, 50, 119):
            ids5, d5 = mat.neighborhood_of(i, 5)
            ids10, d10 = mat.neighborhood_of(i, 10)
            np.testing.assert_array_equal(ids10[: len(ids5)], ids5)

    def test_csr_offsets_consistent(self, random_points):
        mat = materialize(random_points, min_pts_ub=8)
        hoods = mat.prefixes(8)
        assert hoods.ids.shape == hoods.dists.shape == (mat.n_points, hoods.counts.max())
        assert np.all(hoods.starts == np.arange(mat.n_points) * hoods.ids.shape[1])
        assert np.all(hoods.stops - hoods.starts == hoods.counts)
        assert np.all(hoods.counts >= 8)


class TestTwoStepEquivalence:
    def test_lof_range_reuses_materialization(self, random_points):
        # A single UB materialization must answer every smaller MinPts
        # identically to a from-scratch computation.
        mat = materialize(random_points, min_pts_ub=15)
        for k in (2, 7, 15):
            np.testing.assert_allclose(
                mat.lof(k), lof_scores(random_points, k), rtol=1e-9
            )

    @pytest.mark.parametrize("index_name", sorted(available_indexes()))
    def test_every_index_gives_identical_lof(self, random_points, index_name):
        base = lof_scores(random_points, 7, index="brute")
        other = lof_scores(random_points, 7, index=index_name)
        np.testing.assert_allclose(other, base, rtol=1e-9)

    def test_lrd_cache_is_consistent(self, random_points):
        mat = materialize(random_points, min_pts_ub=9)
        first = mat.lrd(4)
        second = mat.lrd(4)
        assert first is second  # cached
        np.testing.assert_allclose(first, mat.lrd(4))


class TestDistinctMode:
    def test_distinct_neighborhood_includes_duplicates_in_radius(self):
        X = np.vstack([np.zeros((3, 2)), [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]])
        mat = materialize(X, min_pts_ub=2, duplicate_mode="distinct")
        ids, dists = mat.neighborhood_of(0, 2)
        # 2-distinct-distance of the origin group is 2.0 (locations at 1, 2);
        # the two co-located duplicates (distance 0) are inside that ball.
        assert dists[-1] == pytest.approx(2.0)
        assert (dists == 0.0).sum() == 2

    def test_distinct_k_distances_positive(self):
        X = np.vstack([np.zeros((5, 2)), np.random.default_rng(3).normal(4, 1, (20, 2))])
        mat = materialize(X, min_pts_ub=6, duplicate_mode="distinct")
        assert np.all(mat.k_distances(6) > 0)

    def test_all_identical_rejected(self):
        with pytest.raises(ValidationError):
            materialize(np.zeros((10, 2)), min_pts_ub=3, duplicate_mode="distinct")

    def test_too_few_locations_rejected(self):
        # Three locations besides each object's own: no row reaches 4.
        X = np.repeat([[0.0], [1.0], [2.0], [3.0]], 5, axis=0)
        with pytest.raises(ValidationError, match="distinct coordinate"):
            materialize(X, min_pts_ub=4, duplicate_mode="distinct")

    def test_one_build_then_batched_extensions(self, clustered_points):
        """The plain build plus one batch per probe for the short rows:
        fewer than n^2 distance evaluations, however many rows fall
        short."""
        # On a 0.1 grid about half the rows hold fewer than 20 distinct
        # locations among their 20 nearest neighbors.
        X = np.round(clustered_points / 0.1) * 0.1
        n, ub = len(X), 20
        with obs.collect() as snap:
            mat = materialize(X, min_pts_ub=ub, duplicate_mode="distinct")
        counters = snap["counters"]
        assert counters["distance.evaluations"] < n * n
        probes = math.ceil(math.log2((n - 1) / ub))
        assert 2 <= counters["knn.batch_queries"] <= 1 + probes
        assert np.all(mat.k_distances(ub) > 0)


class TestLofRangeMethod:
    def test_range_dict(self, random_points):
        mat = materialize(random_points, min_pts_ub=8)
        out = mat.lof_range(3, 8)
        assert sorted(out) == list(range(3, 8 + 1))
        for k, v in out.items():
            np.testing.assert_allclose(v, mat.lof(k))

    def test_reversed_range_rejected(self, random_points):
        mat = materialize(random_points, min_pts_ub=8)
        with pytest.raises(ValidationError):
            mat.lof_range(8, 3)
