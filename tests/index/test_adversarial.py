"""Adversarial inputs for every index: degenerate geometry, extreme
magnitudes, heavy duplication — the failure-injection suite."""

import numpy as np
import pytest

from repro.index import available_indexes, make_index

ALL = sorted(available_indexes())


def assert_matches_brute(X, k=3, queries=None):
    brute = make_index("brute").fit(X)
    queries = queries if queries is not None else range(0, len(X), max(1, len(X) // 5))
    for name in ALL:
        if name == "brute":
            continue
        idx = make_index(name).fit(X)
        for i in queries:
            a = brute.query(X[i], k, exclude=i)
            b = idx.query(X[i], k, exclude=i)
            np.testing.assert_array_equal(b.ids, a.ids, err_msg=f"{name}, query {i}")


class TestDegenerateGeometry:
    def test_all_identical_points(self):
        X = np.tile([[3.0, -1.0]], (25, 1))
        assert_matches_brute(X, k=5)

    def test_collinear_points(self):
        t = np.linspace(0, 10, 30)
        X = np.column_stack([t, 2 * t + 1])
        assert_matches_brute(X, k=4)

    def test_integer_grid_ties(self):
        X = np.array([(float(x), float(y)) for x in range(6) for y in range(6)])
        assert_matches_brute(X, k=4)

    def test_heavy_duplication(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=(10, 2))
        X = np.vstack([base, base, base])  # every point tripled
        assert_matches_brute(X, k=5)

    def test_single_cluster_plus_far_point(self):
        X = np.vstack([np.random.default_rng(1).normal(size=(20, 2)), [[1e6, 1e6]]])
        assert_matches_brute(X, k=3)


class TestExtremeMagnitudes:
    def test_large_coordinates(self):
        rng = np.random.default_rng(2)
        X = rng.normal(loc=1e9, scale=1e3, size=(30, 2))
        assert_matches_brute(X, k=3)

    def test_tiny_coordinates(self):
        rng = np.random.default_rng(3)
        X = rng.normal(scale=1e-6, size=(30, 2))
        assert_matches_brute(X, k=3)

    def test_mixed_scales_per_dimension(self):
        rng = np.random.default_rng(4)
        X = np.column_stack(
            [rng.normal(scale=1e6, size=40), rng.normal(scale=1e-3, size=40)]
        )
        assert_matches_brute(X, k=3)

    def test_negative_quadrants(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(-1000.0, -900.0, size=(30, 3))
        assert_matches_brute(X, k=3)


class TestGridRadiusBoundaries:
    """Rounded coordinates put many points at exactly the radius of a
    query. Every index must compare the same float the brute scan
    computes, or a closed ball drops (or gains) a boundary point."""

    @pytest.mark.parametrize("name", ["balltree", "rstar", "vafile", "xtree"])
    def test_closed_ball_and_ties_match_brute_bit_for_bit(self, name):
        X = np.round(np.random.default_rng(0).normal(size=(200, 3)) / 0.2) * 0.2
        brute = make_index("brute").fit(X)
        idx = make_index(name).fit(X)
        for i in range(len(X)):
            D = brute.metric.pairwise_to_point(X, X[i])
            D[i] = np.inf
            radius = np.unique(D[np.isfinite(D)])[20]
            want = np.flatnonzero(D <= radius)
            ball = idx.query_radius(X[i], radius, exclude=i)
            order = np.argsort(ball.ids)
            np.testing.assert_array_equal(ball.ids[order], want, err_msg=f"{name}, query {i}")
            np.testing.assert_array_equal(ball.distances[order], D[want])
            a = brute.query_with_ties(X[i], 10, exclude=i)
            b = idx.query_with_ties(X[i], 10, exclude=i)
            np.testing.assert_array_equal(b.ids, a.ids, err_msg=f"{name}, query {i}")
            np.testing.assert_array_equal(b.distances, a.distances)


class TestLOFOnAdversarialData:
    def test_lof_on_grid_with_all_indexes(self):
        """Tie-heavy data must give identical LOF through every index."""
        from repro import lof_scores

        X = np.array([(float(x), float(y)) for x in range(7) for y in range(7)])
        base = lof_scores(X, 4, index="brute")
        for name in ALL:
            got = lof_scores(X, 4, index=name)
            np.testing.assert_allclose(got, base, rtol=1e-9, err_msg=name)

    def test_lof_scale_extremes(self):
        from repro import lof_scores

        rng = np.random.default_rng(6)
        cluster = rng.normal(size=(40, 2))
        X = np.vstack([cluster, [[15.0, 0.0]]])
        tiny = lof_scores(X * 1e-9, 5)
        huge = lof_scores(X * 1e9, 5)
        np.testing.assert_allclose(tiny, huge, rtol=1e-6)

    def test_minimal_dataset(self):
        from repro import lof_scores

        X = np.array([[0.0], [1.0]])
        scores = lof_scores(X, 1)
        np.testing.assert_allclose(scores, 1.0)
