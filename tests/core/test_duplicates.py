"""Duplicate handling and the k-distinct-distance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import duplicate_groups, has_min_pts_duplicates, k_distinct_distance
from repro.core.duplicates import distinct_steps
from repro.exceptions import ValidationError

from oracles import loop_k_distinct_radius


class TestDuplicateGroups:
    def test_groups_and_counts(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [2.0, 2.0], [0.0, 0.0]])
        keys, counts = duplicate_groups(X)
        assert keys[0] == keys[2] == keys[4]
        assert counts[keys[0]] == 3
        assert counts.sum() == 5

    def test_all_unique(self, random_points):
        keys, counts = duplicate_groups(random_points)
        assert np.all(counts == 1)
        assert len(np.unique(keys)) == len(random_points)


class TestHasMinPtsDuplicates:
    def test_detects_hazard(self):
        X = np.vstack([np.zeros((4, 2)), [[1.0, 1.0], [2.0, 2.0]]])
        # A point with 3 duplicates besides itself: hazard at MinPts <= 3.
        assert has_min_pts_duplicates(X, min_pts=3)
        assert not has_min_pts_duplicates(X, min_pts=4)

    def test_clean_data(self, random_points):
        assert not has_min_pts_duplicates(random_points, min_pts=1)


class TestKDistinctDistance:
    def test_skips_duplicate_locations(self):
        # Three copies at x=1 count as ONE distinct location.
        X = np.array([[0.0], [1.0], [1.0], [1.0], [5.0]])
        assert k_distinct_distance(X, 0, k=1) == pytest.approx(1.0)
        assert k_distinct_distance(X, 0, k=2) == pytest.approx(5.0)

    def test_own_duplicates_do_not_count(self):
        # Duplicates of the query point are at distance 0: not distinct.
        X = np.array([[0.0], [0.0], [0.0], [2.0], [3.0]])
        assert k_distinct_distance(X, 0, k=1) == pytest.approx(2.0)
        assert k_distinct_distance(X, 0, k=2) == pytest.approx(3.0)

    def test_always_positive(self):
        X = np.vstack([np.zeros((5, 2)), np.random.default_rng(0).normal(3, 1, (10, 2))])
        for k in (1, 3, 5):
            assert k_distinct_distance(X, 0, k=k) > 0

    def test_matches_k_distance_without_duplicates(self, random_points):
        from repro import k_distance

        for k in (1, 4):
            assert k_distinct_distance(random_points, 7, k=k) == pytest.approx(
                k_distance(random_points, k=k, point_index=7)
            )

    def test_too_few_locations_rejected(self):
        X = np.array([[0.0], [0.0], [1.0]])
        with pytest.raises(ValidationError):
            k_distinct_distance(X, 0, k=2)

    def test_bad_index(self, random_points):
        with pytest.raises(IndexError):
            k_distinct_distance(random_points, 999, k=1)


class TestKDistinctRadius:
    def test_matches_the_candidate_walk(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(2, 30))
            coord_keys = rng.integers(0, 6, size=n)
            dists = rng.integers(0, 4, size=n).astype(np.float64)
            dists[rng.random(n) < 0.1] = np.inf  # excluded ids
            ids = rng.permutation(n)
            order = np.lexsort((ids, dists))
            ids, dists = ids[order], dists[order]
            for k in range(1, 8):
                want = loop_k_distinct_radius(ids, dists, coord_keys, k)
                steps, offsets = distinct_steps(ids[None, :], dists[None, :], coord_keys)
                got = steps[k - 1] if offsets[1] >= k else None
                assert got == want


@st.composite
def padded_blocks(draw):
    """``(ids, dists, coord_keys)``: rows sorted by (distance, id) with
    duplicate-heavy keys, zero distances, excluded (inf) ids and -1/inf
    pads of varying length."""
    n = draw(st.integers(2, 25))
    coord_keys = np.array(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
    n_rows = draw(st.integers(1, 6))
    width = draw(st.integers(1, n))
    ids = np.full((n_rows, width), -1, dtype=np.int64)
    dists = np.full((n_rows, width), np.inf)
    for r in range(n_rows):
        length = draw(st.integers(0, width))
        row_ids = np.array(draw(st.permutations(range(n))))[:length]
        row_d = np.array(
            draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, np.inf]),
                          min_size=length, max_size=length)),
            dtype=np.float64,
        )
        order = np.lexsort((row_ids, row_d))
        ids[r, :length] = row_ids[order]
        dists[r, :length] = row_d[order]
    return ids, dists, coord_keys


@settings(max_examples=200, deadline=None)
@given(block=padded_blocks())
def test_distinct_steps_match_the_candidate_walk(block):
    """The one-pass k-distinct radii pick the walk's element, bit for bit."""
    ids, dists, coord_keys = block
    steps, offsets = distinct_steps(ids, dists, coord_keys)
    for r in range(len(ids)):
        found = offsets[r + 1] - offsets[r]
        for k in range(1, ids.shape[1] + 2):
            want = loop_k_distinct_radius(ids[r], dists[r], coord_keys, k)
            if want is None:
                assert found < k
            else:
                assert found >= k
                got = steps[offsets[r] + k - 1]
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
